import math

import numpy as np
import pytest

from censem.cli import (
    main,
    read_censored_sample,
    read_integer_series,
)


def run(*argv):
    return main(list(argv))


def write_lines(path, lines):
    path.write_text("\n".join(str(v) for v in lines) + "\n", encoding="utf-8")


def parse_report(path):
    """Header dict plus {section: (columns, rows)} from a report file."""
    header = {}
    sections = {}
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {"columns": None, "rows": []}
        elif current is None:
            key, _, value = line.partition("=")
            header[key] = value
        elif sections[current]["columns"] is None:
            sections[current]["columns"] = line.split()
        else:
            sections[current]["rows"].append(line.split())
    return header, sections


# --- preprocess -----------------------------------------------------------------


def test_preprocess_hand_trace(tmp_path):
    src = tmp_path / "stamps.txt"
    out = tmp_path / "sample.txt"
    write_lines(src, [0, 0, 3, 3, 10])
    assert run("preprocess", "--input", str(src), "--output", str(out)) == 0
    s = read_censored_sample(str(out))
    assert s.uncensored.tolist() == [3.0, 7.0]
    assert s.intervals[0].count == 2
    text = out.read_text()
    assert text.startswith("n=2\nL=1\ninterval 0 0.5 2\n")


def test_preprocess_empty_file_exits_2(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("", encoding="utf-8")
    out = tmp_path / "sample.txt"
    assert run("preprocess", "--input", str(src), "--output", str(out)) == 2


def test_preprocess_parse_error_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1\n2\npotato\n", encoding="utf-8")
    out = tmp_path / "sample.txt"
    assert run("preprocess", "--input", str(src), "--output", str(out)) == 2
    assert "line 3" in capsys.readouterr().err


def test_preprocess_unsorted_timestamps_name_the_file(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    write_lines(src, [32400000, 32400100, 32400050])
    out = tmp_path / "sample.txt"
    assert run("preprocess", "--input", str(src), "--output", str(out)) == 2
    assert capsys.readouterr().err == f"error: {src}: timestamps must be non-decreasing\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [("preprocess", "--pre-diffed"), ("select",)])
def test_integer_too_large_for_int64_reports_line(tmp_path, capsys, argv):
    src = tmp_path / "big.txt"
    write_lines(src, [5, 2**63 - 1, 99999999999999999999999])
    out = tmp_path / "out.txt"
    assert run(argv[0], "--input", str(src), "--output", str(out), *argv[1:]) == 2
    assert "line 3" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_missing_file_exits_2(tmp_path):
    assert run("preprocess", "--input", str(tmp_path / "nope.txt"),
               "--output", str(tmp_path / "o.txt")) == 2


def test_preprocess_pre_diffed_and_pipeline_conserves_n(tmp_path):
    diffs = tmp_path / "d.txt"
    out = tmp_path / "s.txt"
    write_lines(diffs, [0, 1, 0, 5, 9, 0])
    assert run("preprocess", "--input", str(diffs), "--output", str(out), "--pre-diffed") == 0
    s = read_censored_sample(str(out))
    assert s.total == 6 and s.intervals[0].count == 3


def test_preprocess_custom_censor_intervals(tmp_path):
    diffs = tmp_path / "d.txt"
    out = tmp_path / "s.txt"
    write_lines(diffs, [0, 1, 2, 3])
    assert run("preprocess", "--input", str(diffs), "--output", str(out),
               "--pre-diffed", "--censor", "0,0.5", "--censor", "0.5,1.5") == 0
    s = read_censored_sample(str(out))
    assert [iv.count for iv in s.intervals] == [1, 1]
    assert s.n == 2


# --- simulate -------------------------------------------------------------------


def test_simulate_deterministic_and_parseable(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["simulate", "--component", "exp,0.2,17", "--component", "wbl,0.8,2500,0.57",
            "--n", "5000", "--seed", "9"]
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    vals = read_integer_series(str(a))
    assert vals.size == 5000 and np.all(vals >= 0)


def test_simulate_n_zero_empty_data_section(tmp_path):
    out = tmp_path / "z.txt"
    assert run("simulate", "--component", "exp,1,1", "--n", "0",
               "--output", str(out)) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data == []


def test_simulate_bad_component_exits_2(tmp_path):
    assert run("simulate", "--component", "gauss,1,1", "--n", "10",
               "--output", str(tmp_path / "x.txt")) == 2


def test_simulate_env_seed_override(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    args = ["simulate", "--component", "exp,1,5", "--n", "200"]
    monkeypatch.setenv("CENSEM_SEED", "31337")
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b), "--seed", "31337") == 0
    monkeypatch.delenv("CENSEM_SEED")
    assert run(*args, "--output", str(c), "--seed", "31337") == 0
    # env matches explicit seed; header line differs only if seed differed
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "select"])
def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys, command):
    diffs = tmp_path / "d.txt"
    write_lines(diffs, range(1, 300))
    out = tmp_path / "o.txt"
    args = {"simulate": ["--component", "exp,1,5", "--n", "20"],
            "select": ["--input", str(diffs), "--subsample", "100", "--days", "1"]}[command]
    assert run(command, *args, "--output", str(out), "--seed", "-1") == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    monkeypatch.setenv("CENSEM_SEED", "-3")
    assert run(command, *args, "--output", str(out)) == 2
    assert "CENSEM_SEED must be non-negative" in capsys.readouterr().err
    assert not out.exists()


# --- fit ------------------------------------------------------------------------


@pytest.fixture
def sample_file(tmp_path, reference_mixture):
    from censem.sample_data import generate_synthetic

    diffs = tmp_path / "diffs.txt"
    out = tmp_path / "sample.txt"
    write_lines(diffs, generate_synthetic(reference_mixture, 8000, rng_seed=3).tolist())
    assert run("preprocess", "--input", str(diffs), "--output", str(out), "--pre-diffed") == 0
    return out


def test_fit_report_fields_consistent(tmp_path, sample_file):
    rep = tmp_path / "fit.txt"
    assert run("fit", "--input", str(sample_file), "--output", str(rep), "--shape", "1,1") == 0
    header, sections = parse_report(rep)
    assert header["converged"] == "true"
    n_total = int(header["N"])
    ll = float(header["loglik"])
    assert float(header["avg_loglik"]) == pytest.approx(ll / n_total, rel=1e-15)
    assert float(header["bic"]) == pytest.approx(-2 * ll + 4 * math.log(n_total), rel=1e-15)
    assert int(header["dof"]) == 4
    kinds = [row[1] for row in sections["components"]["rows"]]
    assert kinds == ["exp", "wbl"]
    # N conserved through the pipeline
    assert n_total == 8000
    # trace section has iterations+1 rows
    assert len(sections["trace"]["rows"]) == int(header["iterations"]) + 1


def test_fit_exponential_shape_is_sample_mean(tmp_path):
    sample = tmp_path / "s.txt"
    values = [3, 5, 9, 2, 7, 11]
    sample.write_text("n=6\nL=0\n" + "\n".join(str(v) for v in values) + "\n", encoding="utf-8")
    rep = tmp_path / "fit.txt"
    assert run("fit", "--input", str(sample), "--output", str(rep), "--shape", "1,0") == 0
    _, sections = parse_report(rep)
    alpha = float(sections["components"]["rows"][0][3])
    assert alpha == pytest.approx(np.mean(values), rel=1e-12)


def test_fit_rerun_byte_identical(tmp_path, sample_file):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    # same manifest apart from the output path, which is not embedded
    assert run("fit", "--input", str(sample_file), "--output", str(a), "--shape", "1,1") == 0
    assert run("fit", "--input", str(sample_file), "--output", str(b), "--shape", "1,1") == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_degenerate_exits_3_with_report(tmp_path):
    # zero spread: the Weibull shape score has no root, so the fit must
    # surface the bracket failure as a degeneracy, not an exception
    sample = tmp_path / "s.txt"
    sample.write_text("n=5\nL=0\n7\n7\n7\n7\n7\n", encoding="utf-8")
    rep = tmp_path / "fit.txt"
    assert run("fit", "--input", str(sample), "--output", str(rep), "--shape", "0,1") == 3
    header, _ = parse_report(rep)
    assert header["degenerate"] == "true"
    assert "error" in header


def test_fit_overflow_exits_3_with_report(tmp_path):
    # Weibull shape-2 data pull the shape above 1, and then (bound/alpha)^beta
    # for the far empty interval overflows: a degenerate fit, not a crash.
    from censem import ComponentSpec, MixtureModel, sample

    xs = sample(MixtureModel([1.0], [ComponentSpec.weibull(3.0, 2.0)]), 300, rng_seed=5)
    path = tmp_path / "s.txt"
    path.write_text("n=300\nL=1\ninterval 1e290 1e295 0\n"
                    + "".join(f"{float(x)!r}\n" for x in xs), encoding="utf-8")
    rep = tmp_path / "fit.txt"
    assert run("fit", "--input", str(path), "--output", str(rep), "--shape", "0,1") == 3
    header, _ = parse_report(rep)
    assert header["degenerate"] == "true"
    assert header["error"] == "OverflowError: math range error"


def test_fit_underflow_error_prints_the_value_as_a_float(tmp_path):
    # the value reads the same under every numpy version: 1e+308, not
    # np.float64(1e+308)
    sample = tmp_path / "s.txt"
    sample.write_text("n=2\nL=0\n0.01\n1e308\n", encoding="utf-8")
    rep = tmp_path / "fit.txt"
    assert run("fit", "--input", str(sample), "--output", str(rep), "--shape", "1,0") == 3
    lines = rep.read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if line.startswith("error=")] == [
        "error=ResponsibilityUnderflowError: mixture density underflows at observation value "
        "1e+308"]


def test_fit_insufficient_sample_exits_2(tmp_path):
    sample = tmp_path / "s.txt"
    sample.write_text("n=2\nL=0\n4\n5\n", encoding="utf-8")
    assert run("fit", "--input", str(sample), "--output", str(tmp_path / "r.txt"),
               "--shape", "1,1") == 2


def test_fit_bad_shape_exits_2(tmp_path, sample_file):
    assert run("fit", "--input", str(sample_file), "--output", str(tmp_path / "r.txt"),
               "--shape", "one,one") == 2


# --- select ----------------------------------------------------------------------


def test_select_single_shape_and_determinism(tmp_path, reference_mixture):
    from censem.sample_data import generate_synthetic

    diffs = tmp_path / "d.txt"
    write_lines(diffs, generate_synthetic(reference_mixture, 3000, rng_seed=5).tolist())
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["select", "--input", str(diffs), "--shapes", "1,1", "--boot", "4",
            "--subsample", "120", "--days", "2", "--seed", "8"]
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    header, sections = parse_report(a)
    assert sections["tally"]["rows"] == [["1,1", "1"]]
    assert header["baseline"] == "1,1"


def test_select_default_candidate_set(tmp_path, reference_mixture):
    from censem.sample_data import generate_synthetic

    diffs = tmp_path / "d.txt"
    write_lines(diffs, generate_synthetic(reference_mixture, 2500, rng_seed=6).tolist())
    out = tmp_path / "sel.txt"
    assert run("select", "--input", str(diffs), "--output", str(out),
               "--boot", "2", "--subsample", "100", "--days", "1", "--seed", "3") == 0
    _, sections = parse_report(out)
    assert [r[0] for r in sections["tally"]["rows"]] == ["1,1", "0,2", "3,0", "2,1"]


def test_select_repeated_shape_exits_2(tmp_path, reference_mixture):
    from censem.sample_data import generate_synthetic

    diffs = tmp_path / "d.txt"
    write_lines(diffs, generate_synthetic(reference_mixture, 500, rng_seed=6).tolist())
    out = tmp_path / "sel.txt"
    assert run("select", "--input", str(diffs), "--output", str(out), "--shapes", "1,1;0,2;1,1",
               "--boot", "2", "--subsample", "100", "--days", "1", "--seed", "3") == 2
    assert not out.exists()


def test_select_subsample_too_small_for_every_shape_exits_2(tmp_path, reference_mixture,
                                                           capsys):
    from censem.sample_data import generate_synthetic

    diffs = tmp_path / "d.txt"
    write_lines(diffs, generate_synthetic(reference_mixture, 500, rng_seed=6).tolist())
    out = tmp_path / "sel.txt"
    assert run("select", "--input", str(diffs), "--output", str(out), "--shapes", "1,1;2,1",
               "--boot", "5", "--subsample", "3", "--days", "4", "--seed", "3") == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: subsample_size 3 is too small for every candidate shape: "
        "the smallest, 1,1, needs at least 5\n")


def test_selection_report_marks_sd_of_a_single_fit(tmp_path):
    """A shape with one usable fit in an ensemble has no sd: its column
    reads '-', as the mean column does with none, and the report is whole."""
    from types import SimpleNamespace

    from censem.cli import _write_selection_report
    from censem.model_select import BicStats, EnsembleResult, ModelShape, SelectionReport
    from censem.sample_data import default_censor_spec

    base, alt, dead = ModelShape(1, 1), ModelShape(0, 3), ModelShape(3, 0)
    stats = {base: BicStats(base, np.array([10.0, 12.0, 14.0]), 0),
             alt: BicStats(alt, np.array([11.0]), 2),
             dead: BicStats(dead, np.empty(0), 3)}
    report = SelectionReport([base, alt, dead], base, 2, 20,
                             [EnsembleResult(0, 7, stats, [], base)],
                             {base: 1.0, alt: 0.0, dead: 0.0})
    args = SimpleNamespace(days=1, alpha_level=0.05, two_sided=False, epsilon=1e-5,
                           max_iter=500, m_step="mle")
    out = tmp_path / "sel.txt"
    _write_selection_report(str(out), "d.txt", args, 0, default_censor_spec(), report)
    _, sections = parse_report(out)
    assert sections["bic"]["rows"] == [
        ["0", "7", "1,1", "12", "2", "3", "0"],
        ["0", "7", "0,3", "11", "-", "1", "2"],
        ["0", "7", "3,0", "-", "-", "0", "3"],
    ]
    assert sections["winners"]["rows"] == [["0", "1,1"]]


def test_report_write_is_all_or_nothing(tmp_path):
    """A row that fails to format mid-report (a NaN, which the report
    format refuses) leaves the previous report byte-identical and no
    temporary file beside it."""
    from censem.cli import _write_report
    from censem.errors import DomainError

    out = tmp_path / "report.txt"
    sections = [("rows", ["k", "v"], [(k, 0.5 * k) for k in range(200)])]
    _write_report(str(out), [("run", "first")], sections)
    before = out.read_bytes()
    broken = [("rows", ["k", "v"], [(k, math.nan if k == 150 else 0.25 * k) for k in range(200)])]
    with pytest.raises(DomainError, match="NaN"):
        _write_report(str(out), [("run", "second")], broken)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
    _write_report(str(out), [("run", "first")], sections)
    assert out.read_bytes() == before


@pytest.mark.parametrize("writer", ["integer_series", "censored_sample"])
def test_data_write_is_all_or_nothing(tmp_path, writer):
    """The writers behind preprocess and simulate, failing at value 601 of
    1,000 (a NaN, which neither format can hold), leave the previous file
    byte-identical and no temporary file beside it."""
    from types import SimpleNamespace

    from censem import CensoringInterval
    from censem.cli import write_censored_sample, write_integer_series
    from censem.errors import DomainError

    out = tmp_path / "data.txt"
    if writer == "integer_series":
        def write(values):
            write_integer_series(str(out), values, ["1000 differences"])
        error = ValueError
    else:
        def write(values):
            sample = SimpleNamespace(n=values.size, uncensored=values,
                                     intervals=[CensoringInterval(0.0, 0.5, 7)])
            write_censored_sample(str(out), sample)
        error = DomainError
    good = np.arange(1.0, 1001.0)
    write(good)
    before = out.read_bytes()
    broken = good.copy()
    broken[600] = math.nan
    with pytest.raises(error):
        write(broken)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["data.txt"]


# --- profile ----------------------------------------------------------------------


def _write_day(tmp_path, name, model, n, seed):
    from censem.sample_data import generate_synthetic

    d = generate_synthetic(model, n, seed)
    start = 9 * 3600_000
    stamps = start + np.cumsum(d)
    stamps = stamps[stamps < 17 * 3600_000 + 1800_000]
    p = tmp_path / name
    write_lines(p, stamps.tolist())
    return p


def test_profile_full_session_51_buckets(tmp_path, reference_mixture):
    from censem import ComponentSpec, MixtureModel

    # fast arrivals so every 10-minute bucket holds plenty of data
    model = MixtureModel([0.2, 0.8], [ComponentSpec.exponential(5.0),
                                      ComponentSpec.weibull(150.0, 0.7)])
    day = _write_day(tmp_path, "day0.txt", model, 400_000, 11)
    out = tmp_path / "prof.txt"
    assert run("profile", "--input", str(day), "--output", str(out),
               "--shape", "1,1", "--bucket-minutes", "10", "--min-bucket", "30") == 0
    header, sections = parse_report(out)
    assert len(sections["buckets"]["rows"]) == 51
    assert sections["buckets"]["rows"][0][1] == "09:00"
    assert sections["buckets"]["rows"][-1][1] == "17:20"


def test_profile_determinism_and_shape_guard(tmp_path, reference_mixture):
    model = reference_mixture
    day = _write_day(tmp_path, "day0.txt", model, 40_000, 12)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["profile", "--input", str(day), "--bucket-minutes", "30", "--min-bucket", "50"]
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run("profile", "--input", str(day), "--output", str(tmp_path / "c.txt"),
               "--shape", "2,0") == 2


def test_profile_no_usable_buckets_exits_2(tmp_path):
    day = tmp_path / "day.txt"
    write_lines(day, [9 * 3600_000 + k for k in (1, 2, 3)])
    assert run("profile", "--input", str(day), "--output", str(tmp_path / "p.txt"),
               "--min-bucket", "10") == 2


def test_profile_unsorted_timestamps_name_the_file(tmp_path, capsys):
    good = tmp_path / "good.txt"
    write_lines(good, [9 * 3600_000 + 10 * k for k in range(100)])
    bad = tmp_path / "bad.txt"
    write_lines(bad, [32400000, 32400100, 32400050])
    # sorted session stamps with an out-of-session 5 at line 101: the order is
    # checked before the session filter would drop it
    stray = tmp_path / "stray.txt"
    stamps = [9 * 3600_000 + 10 * k for k in range(200)]
    write_lines(stray, stamps[:100] + [5] + stamps[100:])
    out = tmp_path / "p.txt"
    for path in (bad, stray):
        assert run("profile", "--input", str(good), "--input", str(path),
                   "--output", str(out)) == 2
        assert capsys.readouterr().err == f"error: {path}: timestamps must be non-decreasing\n"
        assert not out.exists()


# --- input errors ---------------------------------------------------------------


INPUT_ERRORS = {
    "censor-one-bound": (["preprocess", "--input", "d.txt", "--pre-diffed", "--censor", "1"],
                         {}, "bad --censor '1'; expected LO,HI"),
    "censor-overlap": (["preprocess", "--input", "d.txt", "--pre-diffed",
                        "--censor", "0,2", "--censor", "1,3"],
                       {}, "--censor intervals must be disjoint"),
    "env-seed": (["simulate", "--component", "exp,1,5", "--n", "20"], {"CENSEM_SEED": "abc"},
                 "CENSEM_SEED must be an integer, got 'abc'"),
    "fit-two-inputs": (["fit", "--input", "s.txt", "--input", "s.txt", "--shape", "1,0"],
                       {}, "this command takes exactly one --input"),
    "profile-no-input": (["profile"], {}, "profile needs at least one --input day file"),
    "simulate-no-component": (["simulate", "--n", "20"], {},
                              "simulate needs at least one --component"),
    "simulate-bad-weight": (["simulate", "--component", "exp,x,1", "--n", "20"], {},
                            "bad --component 'exp,x,1': could not convert string to float: 'x'"),
    "simulate-negative-weight": (["simulate", "--component", "exp,-1,1",
                                  "--component", "exp,2,1", "--n", "20"],
                                 {}, "component weights must be non-negative with positive sum"),
    "simulate-negative-n": (["simulate", "--component", "exp,1,1", "--n", "-1"], {},
                            "--n must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exits_2_with_its_message(tmp_path, monkeypatch, capsys, case):
    argv, env, message = INPUT_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    write_lines(tmp_path / "d.txt", range(1, 300))
    (tmp_path / "s.txt").write_text("n=3\nL=1\ninterval 0 0.5 2\n1\n2\n3\n", encoding="utf-8")
    monkeypatch.delenv("CENSEM_SEED", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run(*argv, "--output", "o.txt") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.txt").exists()


def test_select_shape_with_no_counted_fit_exits_3_with_report(tmp_path, reference_mixture,
                                                              capsys):
    """Every 3,3 fit of a 12-point subsample is refused for its size: the
    report is written, 3,3 wins nothing, and the exit code is 3."""
    from censem.sample_data import generate_synthetic

    diffs = tmp_path / "d.txt"
    write_lines(diffs, generate_synthetic(reference_mixture, 500, rng_seed=6).tolist())
    out = tmp_path / "sel.txt"
    assert run("select", "--input", str(diffs), "--output", str(out), "--shapes", "1,1;3,3",
               "--subsample", "12", "--days", "2", "--boot", "2", "--seed", "3") == 3
    assert capsys.readouterr().err == "shape 3,3: no fit counted\n"
    _, sections = parse_report(out)
    assert sections["tally"]["rows"] == [["1,1", "1"], ["3,3", "0"]]
    assert [row[2:] for row in sections["bic"]["rows"] if row[2] == "3,3"] == [
        ["3,3", "-", "-", "0", "3"]] * 2
