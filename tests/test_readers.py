"""The input readers: the array parse of a file's value lines against the
line loop it falls back to.

`reference_integer_series` and `reference_censored_sample` are the line
loops as they stood before the array parse, kept here as the oracle for
values, error texts and exit codes; the sample loop since also rejects a
repeated `n=` or `L=` and a header line after the first value.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from censem import cli
from censem.components import CensoringInterval
from censem.errors import DomainError, InputFormatError
from censem.sample_data import CensoredSample

SRC = Path(__file__).resolve().parent.parent / "src"
_INT64_MAX = 2**63 - 1


def reference_integer_series(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                v = int(line)
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}: line {lineno}: not an integer: {line!r}", line=lineno
                ) from exc
            if v < 0:
                raise InputFormatError(f"{path}: line {lineno}: negative value {v}", line=lineno)
            if v > _INT64_MAX:
                raise InputFormatError(
                    f"{path}: line {lineno}: value {v} exceeds {_INT64_MAX}", line=lineno
                )
            values.append(v)
    if not values:
        raise InputFormatError(f"{path}: no data lines")
    return np.asarray(values, dtype=np.int64)


def reference_censored_sample(path):
    n = None
    l_count = None
    intervals = []
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if values and line.startswith(("n=", "L=", "interval ")):
                    raise ValueError(f"header line {line!r} after the first value")
                if line.startswith("n="):
                    if n is not None:
                        raise ValueError("repeated n= header")
                    n = int(line[2:])
                elif line.startswith("L="):
                    if l_count is not None:
                        raise ValueError("repeated L= header")
                    l_count = int(line[2:])
                elif line.startswith("interval "):
                    _, lo, hi, count = line.split()
                    intervals.append(CensoringInterval(float(lo), float(hi), int(count)))
                else:
                    values.append(float(line))
            except (ValueError, DomainError) as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}", line=lineno) from exc
    if n is None or l_count is None:
        raise InputFormatError(f"{path}: missing n= or L= header")
    if len(intervals) != l_count:
        raise InputFormatError(
            f"{path}: header says L={l_count} but found {len(intervals)} interval lines"
        )
    if len(values) != n:
        raise InputFormatError(f"{path}: header says n={n} but found {len(values)} value lines")
    try:
        return CensoredSample(np.asarray(values, dtype=float), intervals)
    except DomainError as exc:
        raise InputFormatError(f"{path}: invalid sample: {exc}") from exc


def _outcome(reader, path):
    """What a reader gives: (dtype, value bytes, intervals) or the error."""
    try:
        got = reader(path)
    except InputFormatError as exc:
        return ("error", str(exc), exc.line)
    if isinstance(got, CensoredSample):
        ivs = [(iv.lo, iv.hi, iv.count) for iv in got.intervals]
        return (got.uncensored.dtype.str, got.uncensored.tobytes(), ivs)
    return (got.dtype.str, got.tobytes())


# (case, file text, route): "array" when the array parse is taken, "loop"
# when the line loop reads the values or names the error.
INTEGER_CASES = [
    ("plain", "# header\n5\n6\n", "array"),
    ("underscore digits", "1_000\n7\n", "loop"),
    ("non-ASCII digit", "٥\n7\n", "loop"),
    ("non-ASCII misread by loadtxt", "Ǿ5\n7\n", "loop"),
    ("two fields, one line", "1 2\n", "loop"),
    ("two fields, every line", "1 2\n3 4\n", "loop"),
    ("inline #", "5 # x\n6\n", "loop"),
    ("# after data", "5\n# c\n6\n", "loop"),
    ("negative", "5\n-1\n", "loop"),
    ("2^63", "5\n9223372036854775808\n", "loop"),
    ("2^63 - 1", "9223372036854775807\n", "array"),
    ("float text", "1.0\n", "loop"),
    ("no data", "# only a comment\n\n", "loop"),
    ("empty", "", "loop"),
    ("CRLF", "# h\r\n1\r\n2\r\n", "array"),
    ("lone CR", "# h\r1\r2\r3\r", "array"),
    ("tabs", "\t1\t\n2\t\n", "array"),
    ("plus sign", "+7\n8\n", "array"),
    ("blank lines mid-file", "1\n\n  \n2\n", "array"),
    ("BOM", "\ufeff5\n6\n", "loop"),
    ("BOM before a comment", "\ufeff# h\n5\n", "loop"),
    ("non-ASCII comment before the values", "# café\n5\n6\n", "loop"),
]

SAMPLE_HEAD = "n=2\nL=1\ninterval 0 0.5 3\n"
SAMPLE_CASES = [
    ("plain", SAMPLE_HEAD + "1.5\n2\n", "array"),
    ("nan", SAMPLE_HEAD + "1.5\nnan\n", "array"),
    ("inf", SAMPLE_HEAD + "inf\n2\n", "array"),
    ("negative", SAMPLE_HEAD + "-1.5\n2\n", "array"),
    ("underscore digits", SAMPLE_HEAD + "1_0.5\n2\n", "loop"),
    ("non-ASCII digits", SAMPLE_HEAD + "١.٥\n2\n", "loop"),
    ("two fields", SAMPLE_HEAD + "1.5 2\n", "loop"),
    ("inline #", SAMPLE_HEAD + "1.5 # c\n2\n", "loop"),
    ("# after data", SAMPLE_HEAD + "1.5\n# c\n2\n", "loop"),
    ("header after data", "n=2\n1.5\n2\nL=0\n", "loop"),
    ("repeated n", "n=5\nL=0\nn=2\n1.5\n2.5\n", "loop"),
    ("repeated L", "n=1\nL=1\nL=0\n1.5\n", "loop"),
    ("n after data", "n=1\nL=0\n1.5\nn=1\n", "loop"),
    ("interval after data", "n=1\nL=1\n1.5\ninterval 0 0.5 3\n", "loop"),
    ("n mismatch", SAMPLE_HEAD + "1.5\n2\n3\n", "array"),
    ("L mismatch", "n=1\nL=2\ninterval 0 0.5 3\n1.5\n", "array"),
    ("missing header", "1.5\n2\n", "array"),
    ("bad interval", "n=1\nL=1\ninterval 0 0.5\n1.5\n", "loop"),
    ("CRLF", SAMPLE_HEAD.replace("\n", "\r\n") + "1.5\r\n2\r\n", "array"),
    ("lone CR", SAMPLE_HEAD.replace("\n", "\r") + "1.5\r2\r", "array"),
    ("tabs", SAMPLE_HEAD + "\t1.5\t\n2\t\n", "array"),
    ("plus sign", SAMPLE_HEAD + "+7\n2\n", "array"),
    ("blank lines mid-file", SAMPLE_HEAD + "1.5\n\n \n2\n", "array"),
    ("BOM", "\ufeff" + SAMPLE_HEAD + "1.5\n2\n", "loop"),
    ("non-ASCII comment before the values", "# café\n" + SAMPLE_HEAD + "1.5\n2\n", "loop"),
]


def _route_spy(monkeypatch):
    routes = []
    array_body = cli._array_body

    def spy(*args):
        body = array_body(*args)
        routes.append("array" if body is not None else "loop")
        return body

    monkeypatch.setattr(cli, "_array_body", spy)
    return routes


def _table_params(cases):
    return [pytest.param(text, route, id=case) for case, text, route in cases]


def _command_result(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    code = cli.main([*argv, "--output", str(out)])
    text = out.read_bytes() if out.exists() else None
    if out.exists():
        out.unlink()
    return code, capsys.readouterr().err, text


@pytest.mark.parametrize("text, route", _table_params(INTEGER_CASES))
def test_integer_reader_matches_line_loop(tmp_path, monkeypatch, capsys, text, route):
    path = tmp_path / "series.txt"
    path.write_bytes(text.encode("utf-8"))
    routes = _route_spy(monkeypatch)
    assert _outcome(cli.read_integer_series, str(path)) == _outcome(
        reference_integer_series, str(path)
    )
    assert (routes or ["loop"]) == [route]
    argv = ["preprocess", "--pre-diffed", "--input", str(path)]
    got = _command_result(argv, tmp_path, capsys)
    monkeypatch.setattr(cli, "read_integer_series", reference_integer_series)
    assert got == _command_result(argv, tmp_path, capsys)


@pytest.mark.parametrize("text, route", _table_params(SAMPLE_CASES))
def test_sample_reader_matches_line_loop(tmp_path, monkeypatch, capsys, text, route):
    path = tmp_path / "sample.txt"
    path.write_bytes(text.encode("utf-8"))
    routes = _route_spy(monkeypatch)
    assert _outcome(cli.read_censored_sample, str(path)) == _outcome(
        reference_censored_sample, str(path)
    )
    assert (routes or ["loop"]) == [route]
    argv = ["fit", "--shape", "0,1", "--input", str(path)]
    got = _command_result(argv, tmp_path, capsys)
    monkeypatch.setattr(cli, "read_censored_sample", reference_censored_sample)
    assert got == _command_result(argv, tmp_path, capsys)


def test_bench_shaped_files_take_the_array_route(tmp_path, monkeypatch):
    """With the per-line parse disabled, a header plus 10^4 values must
    still read: the array parse took the whole body."""
    rng = np.random.default_rng(5)
    stamps = np.sort(rng.integers(32_400_000, 63_000_000, size=10_000))
    series = tmp_path / "day.txt"
    series.write_text("# session stamps\n" + "\n".join(map(str, stamps.tolist())) + "\n")
    exact = np.floor(rng.weibull(0.57, 10_000) * 2500 + 0.5) + 1
    sample = tmp_path / "sample.txt"
    sample.write_text(f"n={exact.size}\nL=1\ninterval 0 0.5 12\n"
                      + "\n".join(cli._fmt(v) for v in exact) + "\n")

    def refuse(line):
        raise AssertionError(f"line loop reached: {line!r}")

    monkeypatch.setattr(cli, "_integer_value", refuse)
    monkeypatch.setattr(cli, "_sample_value", refuse)
    assert np.array_equal(cli.read_integer_series(str(series)), stamps)
    got = cli.read_censored_sample(str(sample))
    assert np.array_equal(got.uncensored, exact)
    assert [(iv.lo, iv.hi, iv.count) for iv in got.intervals] == [(0.0, 0.5, 12)]


def test_array_parse_warning_falls_back(tmp_path, monkeypatch):
    """Older numpy releases parse `1.0` as the integer 1 with a
    DeprecationWarning; any warning sends the body to the line loop, and
    none escapes the reader."""
    path = tmp_path / "series.txt"
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    routes = _route_spy(monkeypatch)
    path.write_text("# h\n1\n2\n")
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        assert cli.read_integer_series(str(path)).tolist() == [1, 2]
    assert leaked == [] and routes == ["loop"]
    path.write_text("# h\n1.0\n2\n")
    with pytest.raises(InputFormatError, match="line 2: not an integer: '1.0'"):
        cli.read_integer_series(str(path))


def _invalid_utf8(body: str, where: str) -> bytes:
    """`body` with a 0xff byte on line 2, or at the end, past the line
    loop's first 8 kB read, so that the array parse meets it first."""
    data = body.encode("utf-8")
    if where == "head":
        first, _, rest = data.partition(b"\n")
        return first + b"\n\xff\n" + rest
    return data + b"\xff\n"


@pytest.mark.parametrize("where", ["head", "tail"])
@pytest.mark.parametrize("command", ["preprocess", "select", "profile", "fit"])
def test_non_utf8_input_exits_2(tmp_path, capsys, command, where):
    if command == "fit":
        values = "\n".join(str(v) for v in range(1, 10_001))
        body = f"n=10000\nL=1\ninterval 0 0.5 5\n{values}\n"
    else:
        body = "# stamps\n" + "\n".join(str(32_400_000 + 2 * v) for v in range(10_000)) + "\n"
    path = tmp_path / "input.txt"
    path.write_bytes(_invalid_utf8(body, where))
    out = tmp_path / "out.txt"
    argv = [command, "--input", str(path), "--output", str(out)]
    if command == "fit":
        argv += ["--shape", "1,1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{path}: not UTF-8 text" in err
    assert not out.exists()


def test_pipe_is_read_once(tmp_path):
    """A pipe cannot be opened a second time for the array parse: all of
    its lines go to the loop."""
    if not os.path.exists("/dev/stdin"):
        pytest.skip("no /dev/stdin")
    text = "# header\n" + "\n".join(str(v % 97) for v in range(30_000)) + "\n"
    path = tmp_path / "diffs.txt"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outs = []
    for source, stdin in ((str(path), None), ("/dev/stdin", text)):
        out = tmp_path / f"out{len(outs)}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "censem.cli", "preprocess", "--pre-diffed",
             "--input", source, "--output", str(out)],
            input=stdin, capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text, message", [
    ("n=5\nL=0\nn=2\n1.5\n2.5\n", "line 3: repeated n= header"),
    ("n=1\nL=0\n1.5\nn=1\n", "line 4: header line 'n=1' after the first value"),
], ids=["repeated-n", "n-after-data"])
def test_sample_header_rules_hold_on_a_pipe(monkeypatch, text, message):
    """A pipe goes to the line loop alone, with no array parse tried, and
    it rejects a repeated `n=` or a header line after a value as a file
    does (SAMPLE_CASES)."""
    if not os.path.exists("/dev/fd"):
        pytest.skip("no /dev/fd")
    routes = _route_spy(monkeypatch)
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode("utf-8"))
    os.close(write_end)
    path = f"/dev/fd/{read_end}"
    try:
        with pytest.raises(InputFormatError) as info:
            cli.read_censored_sample(path)
    finally:
        os.close(read_end)
    assert str(info.value) == f"{path}: {message}"
    assert routes == []
