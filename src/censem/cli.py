"""Command-line interface and file formats.

Five subcommands cover the pipeline: `preprocess` turns a timestamp (or
pre-differenced) file into a censored-sample file, `fit` estimates one
mixture shape, `select` runs the bootstrap BIC tournament, `profile`
produces time-of-day parameter averages, and `simulate` writes rounded
synthetic differences.

All files are plain UTF-8 text with LF line endings.  Reports carry a
key=value header echoing the manifest followed by bracketed tabular
sections, with floats at 17 significant digits, so identical manifests
reproduce byte-identical files.

Exit codes: 0 success, 2 input error, 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import warnings

import numpy as np

from .components import CensoringInterval, ComponentSpec, MixtureModel
from .em_core import EmConfig, FitResult, MStepVariant, fit
from .errors import (
    BracketError,
    DegenerateComponentError,
    DomainError,
    InputFormatError,
    NonConvergenceError,
    ResponsibilityUnderflowError,
)
from .model_select import (
    ModelShape,
    SelectionReport,
    avg_loglik,
    bic,
    profile_intraday,
    run_selection,
)
from .sample_data import (
    BucketSpec,
    CensoredSample,
    TimestampSeries,
    build_sample,
    default_censor_spec,
    diff_and_round,
    generate_synthetic,
    ms_to_hhmm,
)

DEFAULT_SEED = 12345
SEED_ENV_VAR = "CENSEM_SEED"
SESSION_START = "09:00"
SESSION_END = "17:30"
DEFAULT_SHAPES = "1,1;0,2;3,0;2,1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    """17-significant-digit float formatting; ints stay ints."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v):
        raise DomainError("refusing to serialize NaN")
    return format(v, ".17g")


# ---------------------------------------------------------------------------
# file readers / writers
# ---------------------------------------------------------------------------


_INT64_MAX = int(np.iinfo(np.int64).max)


def _read_values(path: str, dtype, parse_value, parse_header=None) -> np.ndarray:
    """Values of a text file that holds one value per line.

    Blank lines and `#` lines are skipped, and before the first value line
    `parse_header(line)` takes a header line by returning True; after it,
    every line goes to `parse_value`.  At the first value line the rest of
    the file goes to one array parse (`_array_body`).  When that parse is
    refused, the walk carries on line by line with `parse_value`, so the
    line loop stays the reference for every value and every error text.
    `parse_header` and `parse_value` raise ValueError or DomainError for a
    bad line, and the error names the file and the line.
    """
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # A pipe can be read only once, so its lines all go to the loop.
            try_array = fh.seekable()
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    if parse_header is not None and not values and parse_header(line):
                        continue
                    if try_array:
                        try_array = False
                        body = _array_body(path, lineno - 1, dtype)
                        if body is not None:
                            return body
                    values.append(parse_value(line))
                except (ValueError, DomainError) as exc:
                    raise InputFormatError(
                        f"{path}: line {lineno}: {exc}", line=lineno
                    ) from exc
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return np.asarray(values, dtype=dtype)


def _array_body(path: str, skip: int, dtype) -> np.ndarray | None:
    """The lines of `path` after its first `skip` as one `np.loadtxt`
    parse, or None when the line loop must read them instead.

    `loadtxt` and `int()`/`float()` disagree on some text, so the result
    is taken only where they cannot differ:
    - The file must be ASCII, which the codec checks as it decodes.
      `loadtxt` rejects `1_000` and digits such as `٥` that `int()`
      accepts, and its integer parser reads some other non-ASCII
      characters as digits (`Ǿ5` parses as 4625).
    - The result must be one column, and no warning may be raised.  A line
      with two fields makes two columns, `comments=None` rejects a `#`
      after the first value, an empty body warns, and older numpy
      releases parse `1.0` as the integer 1 with a DeprecationWarning.
    - An integer body must be non-negative, so that the loop names the
      negative line.
    The file goes to `loadtxt` as an open handle, not as a path, because
    numpy opens a path ending in `.gz`, `.bz2`, `.xz` or `.lzma` as
    compressed data.
    """
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            for _ in range(skip):
                fh.readline()
            warnings.simplefilter("error")
            body = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if body.shape[1] != 1 or (body.dtype.kind == "i" and body.min() < 0):
        return None
    return body[:, 0]


def _integer_value(line: str) -> int:
    """One value of a timestamp or difference file."""
    try:
        v = int(line)
    except ValueError as exc:
        raise ValueError(f"not an integer: {line!r}") from exc
    if v < 0:
        raise ValueError(f"negative value {v}")
    if v > _INT64_MAX:
        raise ValueError(f"value {v} exceeds {_INT64_MAX}")
    return v


def read_integer_series(path: str) -> np.ndarray:
    """One non-negative integer per line; '#' comments and blanks ignored."""
    values = _read_values(path, np.int64, _integer_value)
    if not values.size:
        raise InputFormatError(f"{path}: no data lines")
    return values


@contextlib.contextmanager
def _replacing(path: str):
    """Text file handle for writing `path`.  The text goes to a temporary
    file beside `path` and replaces it only once the block completes, so a
    failure mid-write leaves any previous file as it was and no partial
    file behind."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_integer_series(path: str, values, header: list[str]) -> None:
    with _replacing(path) as fh:
        for line in header:
            fh.write(f"# {line}\n")
        for v in values:
            fh.write(f"{int(v)}\n")


def _sample_value(line: str) -> float:
    """One uncensored value of a censored-sample file."""
    if line.startswith(("n=", "L=", "interval ")):
        raise ValueError(f"header line {line!r} after the first value")
    return float(line)


def read_censored_sample(path: str) -> CensoredSample:
    """Censored-sample file: `n=`, `L=`, L `interval lo hi count` lines,
    then n uncensored values, one per line.  `n=` and `L=` each come once,
    and no header line comes after the first value."""
    counts = {}
    intervals: list[CensoringInterval] = []

    def parse_header(line: str) -> bool:
        if line.startswith(("n=", "L=")):
            key = line[0]
            if key in counts:
                raise ValueError(f"repeated {key}= header")
            counts[key] = int(line[2:])
        elif line.startswith("interval "):
            _, lo, hi, count = line.split()
            intervals.append(CensoringInterval(float(lo), float(hi), int(count)))
        else:
            return False
        return True

    values = _read_values(path, float, _sample_value, parse_header)
    if len(counts) < 2:
        raise InputFormatError(f"{path}: missing n= or L= header")
    if len(intervals) != counts["L"]:
        raise InputFormatError(
            f"{path}: header says L={counts['L']} but found {len(intervals)} interval lines"
        )
    if values.size != counts["n"]:
        raise InputFormatError(
            f"{path}: header says n={counts['n']} but found {values.size} value lines"
        )
    try:
        return CensoredSample(values, intervals)
    except DomainError as exc:
        raise InputFormatError(f"{path}: invalid sample: {exc}") from exc


def write_censored_sample(path: str, s: CensoredSample) -> None:
    with _replacing(path) as fh:
        fh.write(f"n={s.n}\n")
        fh.write(f"L={len(s.intervals)}\n")
        for iv in s.intervals:
            fh.write(f"interval {_fmt(iv.lo)} {_fmt(iv.hi)} {iv.count}\n")
        for v in s.uncensored:
            fh.write(f"{_fmt(v)}\n")


def _write_report(path: str, header: list[tuple[str, object]], sections) -> None:
    """key=value header plus [name] sections with a column-header line."""
    with _replacing(path) as fh:
        for key, value in header:
            fh.write(f"{key}={value if isinstance(value, str) else _fmt(value)}\n")
        for name, columns, rows in sections:
            fh.write(f"[{name}]\n")
            fh.write(" ".join(columns) + "\n")
            for row in rows:
                fh.write(" ".join(cell if isinstance(cell, str) else _fmt(cell)
                                  for cell in row) + "\n")


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), SEED_ENV_VAR
        except ValueError as exc:
            raise InputFormatError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if seed < 0:
        raise InputFormatError(f"{source} must be non-negative, got {seed}")
    return seed


def _censor_spec(args) -> list[CensoringInterval]:
    if not args.censor:
        return default_censor_spec()
    spec = []
    for text in args.censor:
        bounds = text.split(",")
        if len(bounds) != 2:
            raise InputFormatError(f"bad --censor {text!r}; expected LO,HI")
        try:
            spec.append(CensoringInterval(float(bounds[0]), float(bounds[1])))
        except (ValueError, DomainError) as exc:
            raise InputFormatError(f"bad --censor {text!r}: {exc}") from exc
    spec.sort(key=lambda iv: iv.lo)
    for a, b in zip(spec, spec[1:]):
        if b.lo < a.hi:
            raise InputFormatError("--censor intervals must be disjoint")
    return spec


def _em_config(args) -> EmConfig:
    return EmConfig(
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        m_step_variant=MStepVariant(args.m_step),
    )


def _single_input(args) -> str:
    if len(args.input) != 1:
        raise InputFormatError("this command takes exactly one --input")
    return args.input[0]


def _timestamps(path: str, stamps: np.ndarray) -> TimestampSeries:
    """The stamps read from `path` as a series; the error names the file."""
    try:
        return TimestampSeries(stamps)
    except DomainError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _censor_header(spec: list[CensoringInterval]) -> str:
    return ";".join(f"{_fmt(iv.lo)},{_fmt(iv.hi)}" for iv in spec)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_preprocess(args) -> int:
    path = _single_input(args)
    spec = _censor_spec(args)
    series = read_integer_series(path)
    if args.pre_diffed:
        diffs = series
    else:
        diffs = diff_and_round(_timestamps(path, series))
    sample = build_sample(diffs, spec)
    write_censored_sample(args.output, sample)
    print(f"wrote {args.output}: n={sample.n}, censored={sample.total - sample.n}")
    return EXIT_OK


def cmd_fit(args) -> int:
    path = _single_input(args)
    shape = ModelShape.parse(args.shape)
    sample = read_censored_sample(path)
    cfg = _em_config(args)
    seed = _resolve_seed(args)
    result = fit(sample, (shape.p, shape.r), cfg)
    _write_fit_report(args.output, path, shape, sample, cfg, seed, result)
    status = "converged" if result.converged else "not converged"
    print(f"wrote {args.output}: loglik={result.loglik:.6g} ({status})")
    return EXIT_NUMERIC if result.degenerate else EXIT_OK


def _write_fit_report(
    out_path: str,
    in_path: str,
    shape: ModelShape,
    sample: CensoredSample,
    cfg: EmConfig,
    seed: int,
    result: FitResult,
) -> None:
    n_total = sample.total
    ll = result.loglik
    header = [
        ("format", "censem-fit-1"),
        ("command", "fit"),
        ("input", in_path),
        ("shape", shape.key),
        ("epsilon", cfg.epsilon),
        ("max_iter", cfg.max_iter),
        ("m_step", cfg.m_step_variant.value),
        ("seed", seed),
        ("n", sample.n),
        ("L", len(sample.intervals)),
        ("N", n_total),
        ("dof", shape.dof),
        ("converged", result.converged),
        ("degenerate", result.degenerate),
        ("iterations", result.iterations),
    ]
    if math.isfinite(ll):
        header += [
            ("loglik", ll),
            ("avg_loglik", avg_loglik(ll, n_total)),
            ("bic", bic(ll, shape.dof, n_total)),
        ]
    else:
        header += [("loglik", "degenerate"), ("avg_loglik", "degenerate"), ("bic", "degenerate")]
    if result.error:
        header.append(("error", result.error.replace("\n", " ")))
    m = result.model
    comp_rows = [
        (i, c.kind.value, float(m.weights[i]), c.alpha, c.beta)
        for i, c in enumerate(m.components)
    ]
    trace_rows = [
        (k, float(v)) for k, v in enumerate(result.loglik_trace) if math.isfinite(v)
    ]
    _write_report(
        out_path,
        header,
        [
            ("components", ["index", "kind", "weight", "alpha", "beta"], comp_rows),
            ("trace", ["iter", "loglik"], trace_rows),
        ],
    )


def cmd_select(args) -> int:
    path = _single_input(args)
    diffs = read_integer_series(path)
    shapes = [ModelShape.parse(tok) for tok in args.shapes.split(";") if tok]
    spec = _censor_spec(args)
    cfg = _em_config(args)
    seed = _resolve_seed(args)
    report = run_selection(
        diffs,
        shapes,
        n_boot=args.boot,
        subsample_size=args.subsample,
        days=args.days,
        rng_seed=seed,
        censor_spec=spec,
        config=cfg,
        alpha_level=args.alpha_level,
        two_sided=args.two_sided,
    )
    _write_selection_report(args.output, path, args, seed, spec, report)
    print(f"wrote {args.output}: winner tally "
          + ", ".join(f"{s.key}={report.winner_tally[s]:.3f}" for s in report.shapes))
    for shape in report.shapes:
        if report.pooled_samples(shape).size == 0:
            print(f"shape {shape.key}: no fit counted", file=sys.stderr)
            return EXIT_NUMERIC
    return EXIT_OK


def _write_selection_report(
    out_path: str, in_path: str, args, seed: int, spec, report: SelectionReport
) -> None:
    header = [
        ("format", "censem-select-1"),
        ("command", "select"),
        ("input", in_path),
        ("shapes", ";".join(s.key for s in report.shapes)),
        ("baseline", report.baseline.key),
        ("boot", report.n_boot),
        ("subsample", report.subsample_size),
        ("days", args.days),
        ("alpha_level", args.alpha_level),
        ("two_sided", bool(args.two_sided)),
        ("epsilon", args.epsilon),
        ("max_iter", args.max_iter),
        ("m_step", args.m_step),
        ("censor", _censor_header(spec)),
        ("seed", seed),
        ("ensembles", len(report.ensembles)),
        ("dropped_ensembles", report.dropped_ensembles),
    ]
    tally_rows = [(s.key, report.winner_tally[s]) for s in report.shapes]
    stat_rows = []
    for ens in report.ensembles:
        for s in report.shapes:
            st = ens.stats[s]
            n = st.samples.size
            stat_rows.append((ens.index, ens.start_index, s.key, st.mean if n else "-",
                              st.sd if n > 1 else "-", n, st.skipped))
    test_rows = [
        (e_idx, t.shape_a.key, t.shape_b.key, t.t, t.dof, t.significant)
        for e_idx, t in report.tests_flat()
    ]
    winner_rows = [(ens.index, ens.winner.key) for ens in report.ensembles]
    _write_report(
        out_path,
        header,
        [
            ("tally", ["shape", "proportion"], tally_rows),
            ("bic", ["ensemble", "start", "shape", "mean", "sd", "n", "skipped"], stat_rows),
            ("tests", ["ensemble", "shape_a", "shape_b", "t", "dof", "significant"], test_rows),
            ("winners", ["ensemble", "winner"], winner_rows),
        ],
    )


def cmd_profile(args) -> int:
    if not args.input:
        raise InputFormatError("profile needs at least one --input day file")
    shape = ModelShape.parse(args.shape)
    if shape.p < 1 or shape.r < 1:
        raise InputFormatError(
            "profile reports exponential and Weibull columns; the shape needs p >= 1 and r >= 1"
        )
    spec = BucketSpec.from_hhmm(SESSION_START, SESSION_END, args.bucket_minutes)
    censor = _censor_spec(args)
    cfg = _em_config(args)
    days = []
    dropped = 0
    for path in args.input:
        # the order is checked on the whole file, so an out-of-session stamp
        # cannot hide a file's disorder by being dropped
        stamps = _timestamps(path, read_integer_series(path)).stamps
        lo, hi = np.searchsorted(stamps, [spec.session_start_ms, spec.session_end_ms])
        dropped += int(stamps.size - (hi - lo))
        days.append(TimestampSeries(stamps[lo:hi]))
    profile = profile_intraday(
        days, spec, shape, cfg, censor_spec=censor, min_bucket_size=args.min_bucket
    )
    if not profile.buckets:
        print("no bucket produced a usable fit", file=sys.stderr)
        return EXIT_INPUT
    header = [
        ("format", "censem-profile-1"),
        ("command", "profile"),
        ("inputs", ";".join(args.input)),
        ("shape", shape.key),
        ("bucket_minutes", args.bucket_minutes),
        ("session_start", SESSION_START),
        ("session_end", SESSION_END),
        ("min_bucket", args.min_bucket),
        ("censor", _censor_header(censor)),
        ("epsilon", args.epsilon),
        ("max_iter", args.max_iter),
        ("m_step", args.m_step),
        ("days", len(days)),
        ("out_of_session_dropped", dropped),
    ]
    bucket_rows = [
        (
            b.bucket_id,
            ms_to_hhmm(b.start_ms),
            b.alpha_wbl,
            b.alpha_exp,
            b.beta,
            b.weight_exp,
            b.day_count,
            b.sample_count,
        )
        for b in profile.buckets
    ]
    skip_rows = [(d, bid, reason) for d, bid, reason in profile.skipped]
    _write_report(
        args.output,
        header,
        [
            (
                "buckets",
                ["bucket", "start", "alpha_wbl", "alpha_exp", "beta", "weight_exp", "days", "N"],
                bucket_rows,
            ),
            ("skipped", ["day", "bucket", "reason"], skip_rows),
        ],
    )
    print(f"wrote {args.output}: {len(profile.buckets)} buckets, {len(profile.skipped)} skipped fits")
    return EXIT_OK


def _parse_component(text: str) -> tuple[ComponentSpec, float]:
    parts = text.split(",")
    try:
        if parts[0] == "exp" and len(parts) == 3:
            return ComponentSpec.exponential(float(parts[2])), float(parts[1])
        if parts[0] == "wbl" and len(parts) == 4:
            return ComponentSpec.weibull(float(parts[2]), float(parts[3])), float(parts[1])
    except (ValueError, DomainError) as exc:
        raise InputFormatError(f"bad --component {text!r}: {exc}") from exc
    raise InputFormatError(
        f"bad --component {text!r}; expected exp,WEIGHT,ALPHA or wbl,WEIGHT,ALPHA,BETA"
    )


def cmd_simulate(args) -> int:
    if not args.component:
        raise InputFormatError("simulate needs at least one --component")
    comps = []
    weights = []
    for text in args.component:
        c, w = _parse_component(text)
        comps.append(c)
        weights.append(w)
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise InputFormatError("component weights must be non-negative with positive sum")
    model = MixtureModel(weights / weights.sum(), comps)
    seed = _resolve_seed(args)
    if args.n < 0:
        raise InputFormatError("--n must be >= 0")
    diffs = generate_synthetic(model, args.n, seed)
    header = [
        "format=censem-diffs-1",
        "command=simulate",
        f"seed={seed}",
        f"n={args.n}",
    ] + [
        f"component {c.kind.value} {_fmt(float(w))} {_fmt(c.alpha)} {_fmt(c.beta)}"
        for w, c in zip(model.weights, model.components)
    ]
    write_integer_series(args.output, diffs, header)
    print(f"wrote {args.output}: {args.n} differences")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_common(sp, *, seed=True, em=False, censor=False):
    sp.add_argument("--input", action="append", default=[], help="input file (repeatable only for profile)")
    sp.add_argument("--output", required=True, help="output file")
    if seed:
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {DEFAULT_SEED}; env {SEED_ENV_VAR} overrides)")
    if em:
        sp.add_argument("--epsilon", type=float, default=EmConfig.epsilon,
                        help="EM stopping tolerance")
        sp.add_argument("--max-iter", type=int, default=EmConfig.max_iter, help="EM iteration cap")
        sp.add_argument("--m-step", choices=[v.value for v in MStepVariant],
                        default=EmConfig.m_step_variant.value, help="M-step variant")
    if censor:
        sp.add_argument("--censor", action="append", default=[], metavar="LO,HI",
                        help="censoring interval (repeatable; default 0,0.5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censem",
        description="Censored EM fitting and model selection for zero-inflated "
                    "inter-arrival times.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("preprocess", help="timestamps (or diffs) -> censored-sample file")
    _add_common(sp, seed=False, censor=True)
    sp.add_argument("--pre-diffed", action="store_true",
                    help="input already holds differences, not timestamps")
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("fit", help="fit one mixture shape to a censored-sample file")
    _add_common(sp, em=True)
    sp.add_argument("--shape", required=True, metavar="P,R", help="p exponentials, r Weibulls")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("select", help="bootstrap BIC tournament over candidate shapes")
    _add_common(sp, em=True, censor=True)
    sp.add_argument("--shapes", default=DEFAULT_SHAPES,
                    help=f"semicolon-separated shapes (default {DEFAULT_SHAPES!r})")
    sp.add_argument("--boot", type=int, default=999, help="bootstrap replicas per ensemble")
    sp.add_argument("--subsample", type=int, default=200, help="contiguous subsample size")
    sp.add_argument("--days", type=int, default=20, help="number of ensembles")
    sp.add_argument("--alpha-level", type=float, default=0.05, help="Welch test level")
    sp.add_argument("--two-sided", action="store_true", help="two-sided Welch test")
    sp.set_defaults(func=cmd_select)

    sp = sub.add_parser("profile", help="intraday bucketed parameter averages")
    _add_common(sp, seed=False, em=True, censor=True)
    sp.add_argument("--shape", default="1,1", metavar="P,R")
    sp.add_argument("--bucket-minutes", type=int, default=10)
    sp.add_argument("--min-bucket", type=int, default=10,
                    help="minimum observations for a bucket fit")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("simulate", help="write rounded synthetic differences")
    _add_common(sp)
    sp.add_argument("--component", action="append", default=[],
                    metavar="KIND,WEIGHT,ALPHA[,BETA]",
                    help="mixture component (repeatable)")
    sp.add_argument("--n", type=int, required=True, help="number of draws")
    sp.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegenerateComponentError, BracketError, NonConvergenceError, ResponsibilityUnderflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
