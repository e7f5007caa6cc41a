import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import streamfdr
from streamfdr import cli, controllers, csvio, simulation


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return cli.main([str(a) for a in argv])


def simulate(tmp_path, name="stream", **kw):
    args = ["--output-dir", tmp_path, "simulate", "--pi1", kw.pop("pi1", 0.02),
            "--length", kw.pop("length", 800), "--seed", kw.pop("seed", 1),
            "--out", name]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run(*args) == 0
    return tmp_path / f"{name}.csv"


class TestSimulate:
    def test_row_count_and_manifest(self, tmp_path):
        path = simulate(tmp_path, length=500)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p,label"
        assert len(lines) == 501
        manifest = json.loads((tmp_path / "stream.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["outputs"]["stream"]["sha256"] == digest(path)

    def test_identical_flags_identical_digest(self, tmp_path):
        a = simulate(tmp_path, name="one")
        b = simulate(tmp_path, name="two")
        assert digest(a) == digest(b)

    def test_pi1_validation_exit_code(self, tmp_path, capsys):
        code = run("--output-dir", tmp_path, "simulate", "--pi1", "1.5")
        assert code == cli.EXIT_VALIDATION
        assert "pi1" in capsys.readouterr().err

    @pytest.mark.parametrize("effect", ["nan", "inf", "-inf"])
    def test_non_finite_effect_exits_2(self, tmp_path, capsys, effect):
        code = run("--output-dir", tmp_path, "simulate", "--pi1", "0.01",
                   f"--effect={effect}")
        assert code == cli.EXIT_VALIDATION
        assert "effect must be finite" in capsys.readouterr().err
        assert not (tmp_path / "stream.csv").exists()


class TestDetect:
    def test_decisions_and_floor_report(self, tmp_path, capsys):
        stream = simulate(tmp_path, pi1=0.0, length=3000)
        code = run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--alpha", "0.1",
                   "--delta", "0.99", "--out", "det")
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold floor" in out
        assert "rescale factor 1.0" in out
        rows = (tmp_path / "det.csv").read_text().splitlines()
        assert rows[0] == "t,p,alpha,reject,label"
        alphas = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert np.all(alphas >= 0.1 * 1.0 * (1.0 - 0.99))
        summary = json.loads((tmp_path / "det.metrics.json").read_text())
        assert summary["T"] == 3000
        assert summary["min_surplus"] >= -1e-10

    def test_tau_lambda_validation(self, tmp_path, capsys):
        stream = simulate(tmp_path)
        code = run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "saffron", "--lambda", "0.6", "--tau", "0.5",
                   "--out", "bad")
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "tau" in err and "lambda" in err

    @pytest.mark.parametrize("method, flag, value", [
        ("lord-decay", "--eta", "inf"), ("lord-decay", "--eta", "nan"),
        ("lord", "--prune-epsilon", "nan"), ("lord", "--prune-epsilon", "inf"),
        ("lord-decay", "--prune-epsilon", "nan"),
        ("lord-decay", "--prune-epsilon", "inf"),
        # every rule records w0, so none may take a NaN that fails its resume
        *[(rule, "--w0", value) for rule in controllers.RULES
          for value in ("nan", "inf")],
        # and lambda and tau, which fixed records as given
        *[(rule, flag, value) for rule in controllers.RULES
          for flag in ("--lambda", "--tau") for value in ("nan", "inf")],
    ])
    def test_non_finite_rule_parameter_exits_2(self, tmp_path, capsys, method,
                                               flag, value):
        stream = simulate(tmp_path)
        code = run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", method, flag, value, "--out", "bad")
        assert code == cli.EXIT_VALIDATION
        name = flag[2:].replace("-", "_")
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "2", "0", "-0.5"])
    def test_fixed_rule_delta_outside_unit_interval_exits_2(self, tmp_path,
                                                            capsys, value):
        stream = simulate(tmp_path)
        capsys.readouterr()
        code = run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "fixed", f"--delta={value}", "--out", "bad")
        assert code == cli.EXIT_VALIDATION
        assert "delta must lie in (0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()
        assert not (tmp_path / "bad.metrics.json").exists()

    def test_delta_ignored_warning(self, tmp_path, capsys):
        stream = simulate(tmp_path)
        code = run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord", "--delta", "0.9", "--out", "warned")
        assert code == 0
        assert "ignored by undecayed" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        code = run("--output-dir", tmp_path, "detect", "--input",
                   tmp_path / "nope.csv", "--method", "lord", "--out", "x")
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("text, row", [
        pytest.param("t,p\n1,0.5\n2\n", 2, id="ragged"),
        pytest.param("t,p\n1,0.5\nx,0.5\n", 2, id="t-not-integer"),
        pytest.param("t,p\n1,abc\n", 1, id="p-not-number"),
        pytest.param("t,p\n1,0.5\n2,0.25\n3,1.5\n", 3, id="p-above-1"),
        pytest.param("t,p\n1,-0.0001\n", 1, id="p-below-0"),
        pytest.param("t,p\n1,0.5\n2,nan\n", 2, id="p-nan"),
        pytest.param("t,p,label\n1,0.5,0\n2,0.5,yes\n", 2,
                     id="label-not-number"),
    ])
    def test_malformed_row_exits_2_naming_it(self, tmp_path, capsys, text,
                                             row):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = run("--output-dir", tmp_path, "detect", "--input", bad,
                   "--method", "lord-decay", "--out", "det")
        assert code == cli.EXIT_VALIDATION
        assert f"row {row}:" in capsys.readouterr().err

    def _resumed(self, tmp_path, *flags):
        """The rows of a detect over a 600-row stream, whole and as two
        halves, the second resumed from the first's snapshot."""
        stream = simulate(tmp_path, pi1=0.05, length=600)
        text = stream.read_text().splitlines()
        head, tail = text[1:301], text[301:]
        part1 = tmp_path / "part1.csv"
        part2 = tmp_path / "part2.csv"
        part1.write_text("\n".join([text[0]] + head) + "\n")
        part2.write_text("\n".join(
            [text[0]] + [f"{i + 1},{r.split(',', 1)[1]}"
                         for i, r in enumerate(tail)]) + "\n")

        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   *flags, "--out", "whole") == 0
        assert run("--output-dir", tmp_path, "detect", "--input", part1,
                   *flags, "--out", "h1", "--save-state", "state.json") == 0
        assert run("--output-dir", tmp_path, "detect", "--input", part2,
                   *flags, "--out", "h2",
                   "--resume-from", tmp_path / "state.json") == 0
        return [(tmp_path / f"{name}.csv").read_text().splitlines()[1:]
                for name in ("whole", "h1", "h2")]

    def test_resume_matches_uninterrupted(self, tmp_path):
        whole, h1, h2 = self._resumed(tmp_path, "--method", "saffron-decay")
        assert h1 + h2 == whole
        # the resumed log counts t on from the snapshot, and reads back
        assert h2[0].startswith("301,")
        log = cli.read_decisions_csv(tmp_path / "h2.csv")
        assert log.p.size == 300

    @pytest.mark.parametrize("rule", controllers.RULES)
    def test_resume_with_every_float_flag(self, tmp_path, rule):
        # each flag is recorded in the snapshot, which the resume checks
        whole, h1, h2 = self._resumed(
            tmp_path, "--method", rule, "--alpha", "0.05", "--delta", "0.9",
            "--eta", "0.5", "--w0", "0.01", "--lambda", "0.2", "--tau", "0.6",
            "--prune-epsilon", "1e-9", "--lag", "2")
        assert h1 + h2 == whole

    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        stream = simulate(tmp_path, pi1=0.05, length=300)
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "h1",
                   "--save-state", "state.json") == 0
        state = tmp_path / "state.json"
        snap = json.loads(state.read_text())
        assert snap["rejection_times"]
        snap["rejection_times"][-1] = snap["t"] + 1
        state.write_text(json.dumps(snap))
        code = run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "h2",
                   "--resume-from", state)
        assert code == cli.EXIT_VALIDATION
        assert "corrupt snapshot" in capsys.readouterr().err


class TestCsvWriter:
    def test_cell_formats(self, tmp_path):
        path = tmp_path / "cells.csv"
        cli._write_csv(path, ["a", "b", "c", "d", "e", "f", "g", "h", "i"], [
            [None, "x"],
            [True, np.bool_(False)],
            [np.bool_(True), False],
            [3, -7],
            [0.1, 1e-300],
            ["plain", "with,comma"],
            np.array([0.5, 2.0 / 3.0]),
            np.array([True, False]),
            [2.5, None],
        ])
        assert path.read_bytes() == (
            b"a,b,c,d,e,f,g,h,i\n"
            b",1,1,3,0.1,plain,0.5,1,2.5\n"
            b'x,0,0,-7,1e-300,"with,comma",0.6666666666666666,0,\n')

    def test_detect_log_equals_a_csv_writer_rewrite(self, tmp_path):
        # a stream and its decision log over several writer chunks, each
        # float cell as repr writes it, each integer and flag as str does
        length = 3 * csvio.NUMERIC_ROWS + 17
        stream = simulate(tmp_path, length=length, pi1=0.05, seed=4)
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "d") == 0
        for path in (stream, tmp_path / "d.csv"):
            text = path.read_text()
            header, *rows = csv.reader(io.StringIO(text))
            floats = [name in ("p", "alpha") for name in header]
            buf = io.StringIO(newline="")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([repr(float(cell)) if is_float else str(int(cell))
                              for is_float, cell in zip(floats, row)]
                             for row in rows)
            assert len(rows) == length and text == buf.getvalue()


class TestVerify:
    def _detect(self, tmp_path, method="lord-decay"):
        stream = simulate(tmp_path, pi1=0.05, length=1200)
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", method, "--out", "det") == 0
        return tmp_path / "det.csv", tmp_path / "det.manifest.json"

    def test_clean_log_passes(self, tmp_path, capsys):
        log, manifest = self._detect(tmp_path)
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest, "--out", "report.json")
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["min_surplus"] >= 0.0

    def test_tampered_log_fails_with_offending_step(self, tmp_path, capsys):
        log, manifest = self._detect(tmp_path)
        lines = log.read_text().splitlines()
        self._forge(log, 600, float(lines[600].split(",")[2]) * 100.0)
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest, "--allow-modified")
        assert code == cli.EXIT_VERIFICATION
        out = capsys.readouterr().out
        assert "FAIL" in out and "first_offending_T" in out

    def _forge(self, log, t, alpha):
        """Give row t of a decision log threshold alpha, consistently."""
        lines = log.read_text().splitlines()
        cells = lines[t].split(",")
        cells[2] = repr(alpha)
        cells[3] = "1" if float(cells[1]) <= alpha else "0"
        lines[t] = ",".join(cells)
        log.write_text("\n".join(lines) + "\n")

    def test_addis_threshold_above_lambda_fails(self, tmp_path, capsys):
        log, manifest = self._detect(tmp_path, method="addis-decay")
        rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
        # a p-value above tau: the indicator numerator spends nothing on it,
        # so only the cap alpha_t <= lambda can catch a forged threshold
        t = next(int(c[0]) for c in rows if float(c[1]) > 0.5)
        self._forge(log, t, 0.9999)
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest, "--allow-modified")
        assert code == cli.EXIT_VERIFICATION
        assert f"first_offending_T={t}" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1e-10"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, tol):
        log, manifest = self._detect(tmp_path)
        self._forge(log, 5, 0.99)  # certified as PASS by --tol inf before
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest, "--allow-modified", f"--tol={tol}")
        assert code == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "tol must be finite and nonnegative" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("row, edit", [
        pytest.param(-1, lambda cells: cells[:3], id="ragged-last-row"),
        pytest.param(5, lambda cells: cells[:2] + ["0.x1"] + cells[3:],
                     id="alpha-not-number"),
        pytest.param(7, lambda cells: cells[:3] + ["yes"] + cells[4:],
                     id="reject-not-integer"),
    ])
    def test_malformed_log_exits_2_naming_the_row(self, tmp_path, capsys, row,
                                                   edit):
        log, manifest = self._detect(tmp_path)
        lines = log.read_text().splitlines()
        lines[row] = ",".join(edit(lines[row].split(",")))
        log.write_text("\n".join(lines) + "\n")
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest, "--allow-modified")
        assert code == cli.EXIT_VALIDATION
        number = row if row > 0 else len(lines) - 1
        assert f"row {number}:" in capsys.readouterr().err

    def test_manifest_with_infinite_eta_exits_2(self, tmp_path, capsys):
        # with eta = inf every threshold would be 1 and the oracle 0: a PASS
        log, manifest = self._detect(tmp_path)
        record = json.loads(manifest.read_text())
        record["resolved"]["eta"] = float("inf")
        manifest.write_text(json.dumps(record))
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest)
        assert code == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "eta must be finite" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("command", ["verify", "rerun"])
    @pytest.mark.parametrize("edit, message", [
        (lambda resolved: resolved.pop("eta"), "manifest records no 'eta'"),
        (lambda resolved: resolved.update(eta="x"),
         "manifest records 'eta' as 'x'"),
    ], ids=["eta-missing", "eta-text"])
    def test_malformed_manifest_setting_exits_2_naming_it(
            self, tmp_path, capsys, command, edit, message):
        log, manifest = self._detect(tmp_path)
        record = json.loads(manifest.read_text())
        edit(record["resolved"])
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        argv = (["verify", "--input", log, "--manifest", manifest]
                if command == "verify" else ["rerun", manifest])
        assert run("--output-dir", tmp_path / "again", *argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "PASS" not in captured.out
        assert not (tmp_path / "again").exists()

    def test_manifest_without_outputs_exits_2(self, tmp_path, capsys):
        log, _ = self._detect(tmp_path)
        manifest = tmp_path / "bare.json"
        manifest.write_text('{"command": "detect"}')
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest)
        assert code == cli.EXIT_VALIDATION
        assert "manifest records no 'outputs'" in capsys.readouterr().err

    def test_digest_mismatch_is_config_error(self, tmp_path, capsys):
        log, manifest = self._detect(tmp_path)
        log.write_text(log.read_text() + "\n")
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", manifest)
        assert code == cli.EXIT_VALIDATION
        assert "mismatch" in capsys.readouterr().err

    def test_wrong_manifest_rejected(self, tmp_path, capsys):
        log, _ = self._detect(tmp_path)
        code = run("--output-dir", tmp_path, "verify", "--input", log,
                   "--manifest", tmp_path / "stream.manifest.json")
        assert code == cli.EXIT_VALIDATION
        assert "decision log" in capsys.readouterr().err


class TestScore:
    def test_series_to_pvalues(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        rows = ["m1,m2,label"]
        values = rng.standard_normal((300, 2))
        values[250] += 8.0
        for i in range(300):
            rows.append(f"{float(values[i, 0])!r},{float(values[i, 1])!r},"
                        f"{int(i == 250)}")
        series = tmp_path / "series.csv"
        series.write_text("\n".join(rows) + "\n")
        code = run("--output-dir", tmp_path, "score", "--input", series,
                   "--label-column", "label", "--window", "50",
                   "--out", "scored")
        assert code == 0
        assert "anomaly fraction" in capsys.readouterr().out
        lines = (tmp_path / "scored.csv").read_text().splitlines()
        assert lines[0] == "t,p,label"
        assert len(lines) == 301
        p250 = float(lines[251].split(",")[1])
        assert p250 < 1e-10


    @pytest.mark.parametrize("columns", ["", "p,", ",p", "p,,label"])
    def test_empty_column_name_exits_2(self, tmp_path, capsys, columns):
        # "" once meant every column, t and label among them
        series = tmp_path / "series.csv"
        series.write_text("t,p,label\n" + "".join(
            f"{i + 1},{i / 60!r},0\n" for i in range(60)))
        out = tmp_path / "out"
        code = run("--output-dir", out, "score", "--input", series,
                   "--columns", columns, "--window", "5")
        assert code == cli.EXIT_VALIDATION
        assert (f"error: --columns: empty name in {columns!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["inf", "1e400", "-inf"])
    def test_infinite_label_exits_2_naming_it(self, tmp_path, capsys, cell):
        series = tmp_path / "series.csv"
        series.write_text("x,label\n" + "".join(
            f"{i / 7!r},{cell if i == 40 else 0}\n" for i in range(60)))
        code = run("--output-dir", tmp_path, "score", "--input", series,
                   "--label-column", "label", "--window", "5")
        assert code == cli.EXIT_VALIDATION
        assert f"row 41: bad label {cell!r}" in capsys.readouterr().err


#: malformed inputs are this long, so a bad row sits in a later chunk
LONG_ROWS = 9000
BAD_ROW = 5000


def _edit_cell(col, value):
    def edit(lines):
        cells = lines[BAD_ROW].split(",")
        cells[col] = value
        lines[BAD_ROW] = ",".join(cells)
    return edit


def _edit_first_t(value):
    def edit(lines):
        lines[1] = value + lines[1][lines[1].index(","):]
    return edit


def _edit_line(row, change):
    def edit(lines):
        lines[row] = change(lines[row])
    return edit


def _blank_line(lines):
    lines.insert(BAD_ROW, "")


def _bom(lines):
    lines[0] = "\ufeff" + lines[0]


#: (id, edit, expected message part) per command; BAD_ROW is the row named
#: unless the part says otherwise.  Cell 1 is p for detect and verify; cell
#: 0 is the first value column for score.
_COMMON = [
    ("ragged", _edit_line(BAD_ROW, lambda line: line.rsplit(",", 1)[0]),
     ", got "),
    ("blank-line", _blank_line, "got 0"),
    ("lone-quote", _edit_line(BAD_ROW, lambda line: '"' + line),
     f"row {BAD_ROW}:"),
    ("lone-quote-early", _edit_line(2, lambda line: '"' + line),
     "row 2: field larger than field limit"),
    ("non-utf8", None, "codec can't decode"),
]
MALFORMED = {
    "detect": _COMMON + [
        ("non-numeric", _edit_cell(1, "abc"), "cannot read p from 'abc'"),
        ("p-nan", _edit_cell(1, "nan"), "p-value must lie in [0, 1], got nan"),
        ("p-above-1", _edit_cell(1, "1.5"), "got 1.5"),
        ("t-gap", _edit_cell(0, str(BAD_ROW + 1)), "gapless"),
        ("bom-header", _bom, "expected columns t,p[,label]"),
    ],
    "verify": _COMMON + [
        ("non-numeric", _edit_cell(1, "abc"), "cannot read p from 'abc'"),
        ("reject-not-integer", _edit_cell(3, "0.5"), "cannot read reject"),
        ("label-nan", _edit_cell(4, "nan"), "cannot read label from 'nan'"),
        ("p-nan", _edit_cell(1, "nan"), "p-value must lie in [0, 1], got nan"),
        ("p-below-0", _edit_cell(1, "-0.5"), "got -0.5"),
        ("t-jump", _edit_cell(0, "77777"), "t must count up by 1"),
        ("t-repeated", _edit_cell(0, str(BAD_ROW - 1)), "t must count up by 1"),
        ("t-not-integer", _edit_cell(0, f"{BAD_ROW}.0"), "cannot read t"),
        ("t-first-zero", _edit_first_t("0"), "row 1: t must count up by 1"),
        ("bom-header", _bom, "missing column 't'"),
    ],
    "score": _COMMON + [
        ("non-numeric", _edit_cell(0, "abc"), "bad number 'abc'"),
        ("value-nan", _edit_cell(0, "nan"), "missing value in column 'x0'"),
        ("label-inf", _edit_cell(2, "inf"), "bad label 'inf'"),
        ("bom-header", _bom, "columns not found"),
    ],
}


class TestMalformedInput:
    """Every malformed input exits 2, without a traceback, naming the row
    where there is one; the files span several read chunks."""

    def _valid(self, tmp_path, command):
        """A valid input of ``command`` and the argv that reads it."""
        if command == "score":
            rng = np.random.default_rng(2)
            path = tmp_path / "series.csv"
            path.write_text("x0,x1,label\n" + "".join(
                f"{a!r},{b!r},0\n"
                for a, b in rng.standard_normal((LONG_ROWS, 2)).tolist()))
            return path, ["score", "--input", path, "--columns", "x0,x1",
                          "--label-column", "label", "--window", "20"]
        stream = simulate(tmp_path, pi1=0.01, length=LONG_ROWS)
        if command == "detect":
            return stream, ["detect", "--input", stream,
                            "--method", "lord-decay", "--out", "det"]
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "det") == 0
        log = tmp_path / "det.csv"
        return log, ["verify", "--input", log, "--manifest",
                     tmp_path / "det.manifest.json", "--allow-modified"]

    @pytest.mark.parametrize("command, case, edit, part", [
        pytest.param(command, case, edit, part, id=f"{command}-{case}")
        for command, cases in MALFORMED.items()
        for case, edit, part in cases
    ])
    def test_exits_2_naming_the_row(self, tmp_path, capsys, command, case,
                                    edit, part):
        path, argv = self._valid(tmp_path, command)
        if edit is None:             # a byte that is not UTF-8, in BAD_ROW
            data = path.read_bytes().split(b"\n")
            data[BAD_ROW] = b"\xff" + data[BAD_ROW]
            path.write_bytes(b"\n".join(data))
        else:
            lines = path.read_text().split("\n")
            edit(lines)
            path.write_text("\n".join(lines))
        capsys.readouterr()
        assert run("--output-dir", tmp_path, *argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert part in err and "Traceback" not in err
        if "row " in part or case in ("non-utf8", "bom-header"):
            return
        assert f"row {BAD_ROW}:" in err

    @pytest.mark.parametrize("argv", [
        ["detect", "--method", "lord-decay"], ["score", "--columns", "p"]],
        ids=["detect", "score"])
    def test_cell_opened_by_a_quote_is_quoted_in_short(
            self, tmp_path, capsys, monkeypatch, argv):
        # the quote opens a cell that csv.reader reads to the end of the file
        monkeypatch.chdir(tmp_path)
        rows = ["t,p", "1,0.5", '2,"0.5'] + [f"{t},0.5" for t in range(3, 3000)]
        (tmp_path / "s.csv").write_text("\n".join(rows) + "\n")
        command, *rest = argv
        assert run(command, "--input", "s.csv", *rest) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.encode()) < 200
        assert err.startswith("error: s.csv: row 2: ")


class TestSweepAndRerun:
    def test_fig4_preset_schema(self, tmp_path):
        code = run("--output-dir", tmp_path, "sweep", "--preset", "fig4",
                   "--reps", "2", "--length", "400", "--out", "swp")
        assert code == 0
        raw = (tmp_path / "swp.raw.csv").read_text().splitlines()
        assert raw[0].startswith("method,alpha_target,delta,eta,pi1,seed")
        assert len(raw) == 1 + 5 * 6 * 2   # methods x grid x reps
        agg = (tmp_path / "swp.agg.csv").read_text().splitlines()
        assert len(agg) == 1 + 5 * 6
        assert "power_mean" in agg[0]

    def test_fig3_preset_writes_two_logs(self, tmp_path):
        code = run("--output-dir", tmp_path, "sweep", "--preset", "fig3",
                   "--out", "death")
        assert code == 0
        assert (tmp_path / "death.saffron.csv").exists()
        assert (tmp_path / "death.saffron-decay.csv").exists()
        manifest = json.loads((tmp_path / "death.manifest.json").read_text())
        assert "death.saffron.csv" in manifest["resolved"]["logs"]

    def test_fig3_log_verifies(self, tmp_path, capsys):
        assert run("--output-dir", tmp_path, "sweep", "--preset", "fig3",
                   "--out", "death") == 0
        code = run("--output-dir", tmp_path, "verify",
                   "--input", tmp_path / "death.saffron-decay.csv",
                   "--manifest", tmp_path / "death.manifest.json")
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(
            "preset = fig4\nmethods = lord-decay\npi1_grid = 0.1,0.5\n"
            "length = 300\nreps = 3\n")
        code = run("--output-dir", tmp_path, "sweep", "--config", cfgfile,
                   "--reps", "2", "--out", "cfg")
        assert code == 0
        raw = (tmp_path / "cfg.raw.csv").read_text().splitlines()
        assert len(raw) == 1 + 1 * 2 * 2   # flag --reps beat the config file

    def test_unknown_preset(self, tmp_path, capsys):
        code = run("--output-dir", tmp_path, "sweep", "--preset", "fig4",
                   "--config", tmp_path / "nope.cfg")
        assert code == cli.EXIT_IO

    def test_rerun_reproduces_outputs_byte_identically(self, tmp_path):
        stream = simulate(tmp_path, pi1=0.03, length=500)
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "addis-decay", "--out", "det") == 0
        before = {name: digest(tmp_path / name)
                  for name in ("det.csv", "det.metrics.json",
                               "det.manifest.json", "stream.csv")}
        other = tmp_path / "redo"
        assert run("--output-dir", other, "rerun",
                   tmp_path / "det.manifest.json") == 0
        assert run("--output-dir", other, "rerun",
                   tmp_path / "stream.manifest.json") == 0
        for name in ("det.csv", "det.metrics.json", "det.manifest.json"):
            assert digest(other / name) == before[name], name
        assert digest(other / "stream.csv") == before["stream.csv"]

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_gamma_file_exits_2(self, tmp_path, capsys, cell):
        stream = simulate(tmp_path, pi1=0.0, length=60)
        weights = tmp_path / "gamma.txt"
        weights.write_text(f"0.5\n{cell}\n0.1\n")
        capsys.readouterr()
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "cg",
                   "--gamma-file", weights) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{weights}: line 2: not a finite number" in err
        assert not (tmp_path / "cg.csv").exists()

    def test_detect_with_custom_gamma_file(self, tmp_path):
        stream = simulate(tmp_path, pi1=0.0, length=60)
        weights = tmp_path / "gamma.txt"
        table = [2.0 ** -(k + 1) for k in range(40)]
        weights.write_text("\n".join(repr(w) for w in table) + "\n")
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord", "--out", "cg",
                   "--gamma-file", weights) == 0
        lines = (tmp_path / "cg.csv").read_text().splitlines()[1:]
        alphas = [float(r.split(",")[2]) for r in lines]
        assert alphas[0] == 0.05 * 0.5          # w0 * gamma_1
        assert alphas[40] == 0.0                # beyond the custom horizon
        manifest = json.loads((tmp_path / "cg.manifest.json").read_text())
        assert "gamma" in manifest["inputs"]
        # and the rerun reloads the same table
        redo = tmp_path / "redo"
        assert run("--output-dir", redo, "rerun",
                   tmp_path / "cg.manifest.json") == 0
        assert digest(redo / "cg.csv") == digest(tmp_path / "cg.csv")

    def test_sweep_cell_failures_reported(self, tmp_path, capsys, monkeypatch):
        from streamfdr import simulation

        def boom(cfg, pi1, rep):
            raise RuntimeError("cell exploded")

        monkeypatch.setattr(simulation, "_sweep_cell", boom)
        code = run("--output-dir", tmp_path, "sweep", "--preset", "fig4",
                   "--reps", "1", "--length", "100", "--out", "bad")
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "cell exploded" in err
        assert (tmp_path / "bad.raw.csv").exists()

    @pytest.mark.parametrize("argv, name", [
        (["--preset", "fig4", "--length", "0"], "length"),
        (["--preset", "fig1", "--alpha", "nan"], "alpha"),
        (["--preset", "fig4", "--alpha", "1"], "alpha"),
        (["--preset", "fig1", "--delta", "nan"], "delta"),
        (["--preset", "fig4", "--delta", "1.5"], "delta"),
        (["--config", "eta"], "eta"),
        (["--config", "pi1"], "pi1"),
    ], ids=["length-0", "alpha-nan", "alpha-1", "delta-nan", "delta-1.5",
            "eta-inf", "pi1-nan"])
    def test_bad_grid_setting_exits_2_before_any_cell(self, tmp_path, capsys,
                                                      monkeypatch, argv, name):
        from streamfdr import simulation

        def never(*args):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr(simulation, "_sweep_cell", never)
        if argv[0] == "--config":
            cfgfile = tmp_path / "sweep.cfg"
            cfgfile.write_text({"eta": "preset = fig4\neta = inf\n",
                                "pi1": "preset = fig1\npi1_grid = 0.1,nan\n"}
                               [argv[1]])
            argv = ["--config", cfgfile]
        out = tmp_path / "out"
        code = run("--output-dir", out, "sweep", *argv, "--reps", "1",
                   "--out", "bad")
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {name} must" in err
        assert "cell(s) failed" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv, config, name", [
        (["--preset", "fig6", "--reps", "0"], None, "reps"),
        (["--preset", "fig6", "--workers", "0"], None, "workers"),
        (["--preset", "fig6", "--delta", "2"], None, "delta"),
        (["--preset", "fig3", "--delta", "2"], None, "delta"),
        ([], "preset = fig6\nreps = 0\n", "reps"),
    ], ids=["fig6-reps-0", "fig6-workers-0", "fig6-delta-2", "fig3-delta-2",
            "config-reps-0"])
    def test_bad_burst_or_frontier_setting_exits_2_writing_nothing(
            self, tmp_path, capsys, argv, config, name):
        if config is not None:
            cfgfile = tmp_path / "sweep.cfg"
            cfgfile.write_text(config)
            argv = ["--config", cfgfile]
        out = tmp_path / "out"
        code = run("--output-dir", out, "sweep", *argv, "--out", "bad")
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {name} must" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("line, name", [
        ("methods =", "methods"), ("pi1_grid =", "pi1_grid"),
        ("reps = 2.5", "reps")], ids=["methods-empty", "pi1-empty", "reps"])
    def test_bad_config_value_exits_2_naming_it(self, tmp_path, capsys,
                                                 line, name):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"preset = fig4\n{line}\nlength = 100\n")
        out = tmp_path / "out"
        code = run("--output-dir", out, "sweep", "--config", cfgfile)
        assert code == cli.EXIT_VALIDATION
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_preset_flag_wins_and_is_recorded(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("preset = fig1\n")
        assert run("--output-dir", tmp_path, "sweep", "--preset", "fig4",
                   "--config", cfgfile, "--reps", "1", "--length", "100",
                   "--out", "p") == 0
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["resolved"]["preset"] == "fig4"
        raw = (tmp_path / "p.raw.csv").read_text().splitlines()
        assert len(raw) == 1 + 5 * 6    # fig4's methods and grid

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "envout"))
        assert run("simulate", "--pi1", "0.0", "--length", "50",
                   "--out", "envstream") == 0
        assert (tmp_path / "envout" / "envstream.csv").exists()


#: the settings each kind of sweep runs on, and so accepts and records
GRID = ("methods", "pi1_grid", "length", "reps", "alpha", "delta", "eta",
        "lag", "alternative", "effect", "sidedness", "ma_lag", "seed_base",
        "workers")
KIND_SETTINGS = {
    "grid": GRID,
    "burst": ("methods", "alpha", "delta", "eta", "effect", "alternative",
              "sidedness", "seed_base"),
    "frontier": ("reps", "workers", "delta", "eta", "effect", "alternative",
                 "sidedness", "seed_base"),
}
KINDS = {"fig1": "grid", "fig4": "grid", "fig3": "burst", "fig6": "frontier"}
#: flags that keep each preset's run small
SMALL = {"fig1": ["--reps", "1", "--length", "300"],
         "fig4": ["--reps", "1", "--length", "300"],
         "fig3": [], "fig6": ["--reps", "1"]}

#: the resolved settings of a sweep manifest written before each kind kept
#: only its own: 24 keys, as ``sweep --preset fig4 --reps 1 --length 300
#: --out old`` wrote them; fig3 and fig6 runs differ in OLD_KINDS
OLD_RESOLVED = {
    "alpha": 0.1, "alpha_grid": [0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5],
    "alternative": "mean", "burst_anomalies": 50, "burst_length": 1000,
    "config_file": None, "delta": 0.99, "effect": 3.0, "eta": 1.0,
    "frontier_method": "lord-decay", "gap": 10000, "kind": "grid", "lag": 0,
    "length": 300, "ma_lag": 0,
    "methods": ["lord", "saffron", "addis", "lord-decay", "saffron-decay"],
    "out": "old", "pi1_grid": [0.0001, 0.001, 0.01, 0.1, 0.5, 0.9],
    "preset": "fig4", "reps": 1, "seed_base": 0, "sidedness": "two",
    "threshold_grid": [
        3e-05, 4.3001739428012096e-05, 6.163831979448818e-05,
        8.835183221943533e-05, 0.00012664274890291974,
        0.0001815286162923504, 0.0002602015418843744, 0.0003729706300959613,
        0.0005346128616562658, 0.0007663094323935538, 0.0010984212844338456,
        0.0015744675285135523, 0.002256828079966863, 0.003234917767618525,
        0.004636903030472607, 0.006646496528978079, 0.009527030394943395,
        0.013655962618870214, 0.019574338205844324, 0.028057686366783276,
        0.04021764393657667, 0.05764762149897461, 0.08263159994478568,
        0.11844341764484692, 0.1697757660842305, 0.24335510847817346,
        0.3488230987751339, 0.5],
    "workers": 1,
}
OLD_KINDS = {
    "fig4": {},
    "fig3": {"kind": "burst", "preset": "fig3", "length": 20000, "reps": 20,
             "methods": ["saffron", "saffron-decay"], "pi1_grid": []},
    "fig6": {"kind": "frontier", "preset": "fig6", "length": 20000,
             "methods": ["saffron", "saffron-decay"], "pi1_grid": []},
}


def _default_text(name):
    """A setting's default as a config file writes it."""
    value = getattr(simulation.SweepConfig(), name)
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert digest(a / name) == digest(b / name), name


class TestSweepSettings:
    """Each kind of sweep accepts, records and reruns only its settings."""

    @pytest.mark.parametrize("preset, name", [
        (preset, name) for preset in ("fig3", "fig6") for name in GRID
        if name not in KIND_SETTINGS[KINDS[preset]]])
    def test_setting_outside_the_kind_exits_2_naming_it(
            self, tmp_path, capsys, preset, name):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"preset = {preset}\n{name} = "
                           f"{_default_text(name)}\n")
        out = tmp_path / "out"
        code = run("--output-dir", out, "sweep", "--config", cfgfile)
        assert code == cli.EXIT_VALIDATION
        kind = KINDS[preset]
        assert (f"error: preset {preset} (a {kind} sweep) does not use {name}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("preset, flag, name", [
        ("fig3", "--reps", "reps"), ("fig3", "--workers", "workers"),
        ("fig3", "--length", "length"), ("fig6", "--alpha", "alpha"),
        ("fig6", "--length", "length")])
    def test_flag_outside_the_kind_exits_2_naming_it(
            self, tmp_path, capsys, preset, flag, name):
        out = tmp_path / "out"
        code = run("--output-dir", out, "sweep", "--preset", preset, flag, "1")
        assert code == cli.EXIT_VALIDATION
        assert f"does not use {name}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_accepts_every_setting(self, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("preset = fig1\n" + "".join(
            f"{name} = {_default_text(name)}\n" for name in GRID
            if name not in ("length", "reps")) + "length = 100\nreps = 1\n")
        assert run("--output-dir", tmp_path, "sweep", "--config", cfgfile,
                   "--out", "all") == 0
        raw = (tmp_path / "all.raw.csv").read_text().splitlines()
        assert len(raw) == 1 + 5 * 6    # the file's methods and grid: fig4's

    @pytest.mark.parametrize("preset", ["fig3", "fig6"])
    def test_burst_stream_takes_the_mixture_settings(self, tmp_path, preset):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"preset = {preset}\nalternative = scale\n"
                           "sidedness = upper\n")
        argv = ["sweep", *SMALL[preset], "--out", "s"]
        assert run("--output-dir", tmp_path / "a", *argv,
                   "--preset", preset) == 0
        assert run("--output-dir", tmp_path / "b", *argv,
                   "--config", cfgfile) == 0
        data = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert data
        assert all(digest(tmp_path / "a" / name) != digest(tmp_path / "b" / name)
                   for name in data)

    @pytest.mark.parametrize("preset", ["fig1", "fig4", "fig3", "fig6"])
    def test_every_preset_records_its_settings_and_reruns_byte_identically(
            self, tmp_path, preset):
        first = tmp_path / "first"
        assert run("--output-dir", first, "sweep", "--preset", preset,
                   *SMALL[preset], "--out", "s") == 0
        resolved = json.loads((first / "s.manifest.json").read_text())["resolved"]
        kind = KINDS[preset]
        assert set(resolved) == {"kind", "preset", "out", "config_file",
                                 *KIND_SETTINGS[kind],
                                 *(["logs"] if kind == "burst" else [])}
        assert resolved["preset"] == preset
        assert run("--output-dir", tmp_path / "again", "rerun",
                   first / "s.manifest.json") == 0
        _same_files(first, tmp_path / "again")

    @pytest.mark.parametrize("preset", ["fig4", "fig3", "fig6"])
    def test_old_24_key_manifest_reruns_to_the_same_data(self, tmp_path,
                                                         preset):
        resolved = dict(OLD_RESOLVED, **OLD_KINDS[preset])
        assert len(resolved) == 24
        manifest = tmp_path / "old.manifest.json"
        manifest.write_text(json.dumps({"command": "sweep", "inputs": {},
                                        "outputs": {}, "resolved": resolved}))
        assert run("--output-dir", tmp_path / "rerun", "rerun", manifest) == 0
        assert run("--output-dir", tmp_path / "fresh", "sweep", "--preset",
                   preset, *SMALL[preset], "--out", "old") == 0
        # the rerun records only the kind's settings, as a fresh run does
        _same_files(tmp_path / "rerun", tmp_path / "fresh")

    @pytest.mark.parametrize("key, value", [
        ("config_file", 5), ("preset", ["fig6"]), ("out", None)])
    def test_mistyped_record_exits_2_before_any_output(self, tmp_path,
                                                       capsys, key, value):
        # a config_file of 5 once reached open() as a file descriptor
        resolved = dict(OLD_RESOLVED, **OLD_KINDS["fig6"])
        resolved[key] = value
        manifest = tmp_path / "old.manifest.json"
        manifest.write_text(json.dumps({"command": "sweep", "inputs": {},
                                        "outputs": {}, "resolved": resolved}))
        out = tmp_path / "rerun"
        assert run("--output-dir", out, "rerun", manifest) == 2
        assert (f"manifest records {key!r} as {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()


#: per command, every key its manifest records, each with a value of the
#: wrong type
RERUN_KEYS = {
    "simulate": {"length": 200.0, "pi1": "0.02", "alternative": None,
                 "effect": True, "sidedness": 2, "seed": 1.5, "ma_lag": False,
                 "out": 5},
    "score": {"input": 5, "columns": "x0", "label_column": 1,
              "window": "50", "sidedness": None, "forward_fill": 0,
              "out": ["s"]},
    "detect": {"input": None, "out": 7, "resume_from": 3, "save_state": [],
               "gamma_file": 1.5, "method": 3, "alpha": "0.1", "delta": "x",
               "eta": True, "w0": [0.05], "lam": "a", "tau": {}, "lag": 1.5,
               "dependence_correction": 0, "lag_decay_exponent": None,
               "prune_epsilon": None, "horizon": 1e6},
}
#: the rule settings, which a sweep records for each of its decision logs
RULE_KEYS = {key: value for key, value in RERUN_KEYS["detect"].items()
             if key not in ("input", "out", "resume_from", "save_state",
                            "gamma_file")}
#: what each check reads: a rerun every key of its command's manifest,
#: verify every key of a detect manifest or the rule settings of a sweep log
READS = [*[("rerun", command, key) for command, keys in RERUN_KEYS.items()
           for key in keys],
         *[("verify", "detect", key) for key in RERUN_KEYS["detect"]],
         *[("verify", "sweep", key) for key in RULE_KEYS]]


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    assert run("--output-dir", out, "sweep", "--preset", "fig3",
               "--out", "s") == 0
    return out


class TestRerunReadsEveryKey:
    """A manifest that lacks a key a rerun or verify reads, or records it
    with the wrong type, exits 2 naming it before any output is written."""

    def _manifest(self, tmp_path, command):
        stream = simulate(tmp_path, length=200)
        if command == "simulate":
            return tmp_path / "stream.manifest.json"
        if command == "detect":
            assert run("--output-dir", tmp_path, "detect", "--input", stream,
                       "--method", "lord-decay", "--out", "det") == 0
            return tmp_path / "det.manifest.json"
        series = tmp_path / "series.csv"
        series.write_text("x0,x1,label\n" + "".join(
            f"{i % 7}.5,{i % 3},{int(i % 50 == 0)}\n" for i in range(200)))
        assert run("--output-dir", tmp_path, "score", "--input", series,
                   "--columns", "x0,x1", "--label-column", "label",
                   "--window", "20", "--out", "sc") == 0
        return tmp_path / "sc.manifest.json"

    def _edited(self, tmp_path, capsys, check, command, edit, fig3_run):
        if command == "sweep":
            log = fig3_run / "s.saffron.csv"
            record = json.loads((fig3_run / "s.manifest.json").read_text())
            edit(record["resolved"]["logs"][log.name])
        else:
            manifest = self._manifest(tmp_path, command)
            log = tmp_path / "det.csv"
            record = json.loads(manifest.read_text())
            edit(record["resolved"])
        manifest = tmp_path / "edited.manifest.json"
        manifest.write_text(json.dumps(record))
        capsys.readouterr()
        argv = (["rerun", manifest] if check == "rerun" else
                ["verify", "--input", log, "--manifest", manifest,
                 "--out", "report.json"])
        code = run("--output-dir", tmp_path / "again", *argv)
        assert not (tmp_path / "again").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", list(RERUN_KEYS))
    def test_every_recorded_key_is_read(self, tmp_path, command):
        resolved = json.loads(
            self._manifest(tmp_path, command).read_text())["resolved"]
        assert set(resolved) == set(RERUN_KEYS[command])

    def test_every_rule_setting_of_a_sweep_log_is_read(self, fig3_run):
        resolved = json.loads((fig3_run / "s.manifest.json").read_text())
        for logged in resolved["resolved"]["logs"].values():
            assert set(logged) == set(RULE_KEYS)

    @pytest.mark.parametrize("check, command, key", READS)
    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys, fig3_run,
                                           check, command, key):
        code, err = self._edited(tmp_path, capsys, check, command,
                                 lambda resolved: resolved.pop(key), fig3_run)
        assert code == cli.EXIT_VALIDATION
        assert f"manifest records no {key!r}" in err

    @pytest.mark.parametrize("check, command, key", READS)
    def test_mistyped_key_exits_2_naming_it(self, tmp_path, capsys, fig3_run,
                                            check, command, key):
        value = RERUN_KEYS["detect" if command == "sweep" else command][key]
        code, err = self._edited(
            tmp_path, capsys, check, command,
            lambda resolved: resolved.update({key: value}), fig3_run)
        assert code == cli.EXIT_VALIDATION
        assert f"manifest records {key!r} as {value!r}" in err


def test_declarations_record_every_config_field():
    fields = dataclasses.fields
    rule = {f.name for f in fields(controllers.ControllerConfig)}
    assert set(cli._RULE_SETTINGS) == rule - {"rule", "gamma"} | {"method"}
    generator = {f.name for f in fields(simulation.GeneratorConfig)}
    assert set(cli._SIMULATE) == generator | {"out"}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


#: a run of each case and the resolved settings its manifest records, as
#: the commit before one declaration per command wrote them; IN stands for
#: the directory of the inputs
IN = "<inputs>"
_RULE_FLAGS = ["--method", "addis-decay", "--alpha", "0.05", "--delta",
               "0.95", "--eta", "0.5", "--w0", "0.01", "--lambda", "0.2",
               "--tau", "0.6", "--prune-epsilon", "1e-9"]
_RULE_RESOLVED = {
    "alpha": 0.05, "delta": 0.95, "dependence_correction": False,
    "eta": 0.5, "gamma_file": None, "horizon": 1000000,
    "input": f"{IN}/old.csv", "lag": 0, "lag_decay_exponent": False,
    "lam": 0.2, "method": "addis-decay", "prune_epsilon": 1e-09,
    "resume_from": None, "save_state": None, "tau": 0.6, "w0": 0.01}
OLD_MANIFESTS = {
    "simulate": (
        ["simulate", "--pi1", "0.05", "--length", "400", "--alternative",
         "scale", "--effect", "2.5", "--sidedness", "upper", "--seed", "7",
         "--ma-lag", "1", "--out", "old"],
        {"alternative": "scale", "effect": 2.5, "length": 400, "ma_lag": 1,
         "out": "old", "pi1": 0.05, "seed": 7, "sidedness": "upper"}),
    "score": (
        ["score", "--input", f"{IN}/series.csv", "--columns", "x0,x1",
         "--label-column", "label", "--window", "20", "--sidedness", "lower",
         "--forward-fill", "--out", "oldsc"],
        {"columns": ["x0", "x1"], "forward_fill": True,
         "input": f"{IN}/series.csv", "label_column": "label",
         "out": "oldsc", "sidedness": "lower", "window": 20}),
    "detect": (
        ["detect", "--input", f"{IN}/old.csv", *_RULE_FLAGS,
         "--save-state", "old.state", "--out", "olddet"],
        dict(_RULE_RESOLVED, out="olddet", save_state="old.state")),
    "detect-resumed": (
        ["detect", "--input", f"{IN}/old.csv", *_RULE_FLAGS,
         "--resume-from", f"{IN}/old.state", "--out", "oldres"],
        dict(_RULE_RESOLVED, out="oldres", resume_from=f"{IN}/old.state")),
    "detect-lagged": (
        ["detect", "--input", f"{IN}/old.csv", "--method", "lord-dep-decay",
         "--lag", "3", "--dependence-correction", "--lag-decay-exponent",
         "--out", "olddep"],
        {"alpha": 0.1, "delta": 0.99, "dependence_correction": True,
         "eta": 1.0, "gamma_file": None, "horizon": 1000000,
         "input": f"{IN}/old.csv", "lag": 3, "lag_decay_exponent": True,
         "lam": None, "method": "lord-dep-decay", "out": "olddep",
         "prune_epsilon": 1e-12, "resume_from": None, "save_state": None,
         "tau": None, "w0": 0.05}),
}


@pytest.mark.parametrize("case", list(OLD_MANIFESTS))
def test_old_manifest_reruns_to_the_same_data(tmp_path, case):
    inputs = tmp_path / "in"

    def local(argv):
        return [a.replace(IN, str(inputs)) for a in argv]

    for name in ("simulate", "detect"):   # old.csv, then old.state
        assert run("--output-dir", inputs, *local(OLD_MANIFESTS[name][0])) == 0
    (inputs / "series.csv").write_text("x0,x1,label\n" + "".join(
        f"{i % 7}.5,{i % 3},{int(i % 50 == 0)}\n" for i in range(200)))
    argv, resolved = OLD_MANIFESTS[case]
    resolved = {key: local([value])[0] if isinstance(value, str) else value
                for key, value in resolved.items()}
    manifest = tmp_path / "old.manifest.json"
    manifest.write_text(json.dumps({"command": argv[0], "inputs": {},
                                    "outputs": {}, "resolved": resolved}))
    assert run("--output-dir", tmp_path / "rerun", "rerun", manifest) == 0
    assert run("--output-dir", tmp_path / "fresh", *local(argv)) == 0
    _same_files(tmp_path / "rerun", tmp_path / "fresh")


#: a fresh interpreter runs each command once
_COLD_START = """
import json
import sys

import streamfdr
from streamfdr import cli

out = sys.argv[1]


def run(*argv):
    assert cli.main(["--output-dir", out, *argv]) == 0, argv


run("simulate", "--pi1", "0.05", "--length", "2000", "--out", "stream")
with open(out + "/series.csv", "w") as fh:
    fh.write("x,label\\n")
    fh.writelines(f"{(i * 7919) % 101 / 10!r},{int(i == 150)}\\n"
                  for i in range(300))
run("score", "--input", out + "/series.csv", "--label-column", "label",
    "--window", "50", "--out", "scored")
run("detect", "--input", out + "/stream.csv", "--method", "lord-decay",
    "--out", "det")
for method in ("scratch", "recurrence"):
    run("verify", "--input", out + "/det.csv", "--manifest",
        out + "/det.manifest.json", "--method", method)
"""


#: a fresh interpreter builds every rule at its defaults, steps it, and runs
#: the scratch verifier on a log written beforehand
_ONLINE = """
import json
import sys

from streamfdr import cli, controllers

out = sys.argv[1]
for rule in controllers.RULES:
    ctrl = controllers.make_controller(controllers.ControllerConfig(rule=rule))
    for p in (0.5, 1e-9, 0.2, 1e-9, 0.9):
        ctrl.step(p)
assert cli.main(["verify", "--input", out + "/det.csv", "--manifest",
                 out + "/det.manifest.json", "--method", "scratch"]) == 0
"""

#: a fresh interpreter runs detect on a stream written beforehand
_DETECT = """
import json
import sys

from streamfdr import cli

out = sys.argv[1]
assert cli.main(["--output-dir", out + "/again", "detect", "--input",
                 out + "/stream.csv", "--method", "lord-decay"]) == 0
"""


class TestColdStart:
    def test_no_command_imports_scipy_signal(self, tmp_path):
        # scipy.signal alone took most of a cold start's import time
        loaded = self._scipy_after(_COLD_START, tmp_path)
        assert [m for m in loaded if m.startswith("scipy.signal")] == []
        assert (tmp_path / "scored.csv").exists()

    @staticmethod
    def _scipy_after(script, *argv):
        """The scipy modules a fresh interpreter has loaded after ``script``."""
        src = os.path.dirname(os.path.dirname(streamfdr.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script += ("\nprint(json.dumps(sorted(m for m in sys.modules\n"
                   "                        if m.split('.')[0] == 'scipy')))\n")
        done = subprocess.run([sys.executable, "-c", script,
                               *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_online_path_imports_no_scipy(self, tmp_path):
        # the rules, their step and the scratch verifier are numpy only;
        # scipy loads where it is used: LAPACK for the batch sums, ndtr for
        # p-values
        stream = simulate(tmp_path, pi1=0.05, length=2000)
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "det") == 0
        assert self._scipy_after(_ONLINE, tmp_path) == []
        loaded = self._scipy_after(_DETECT, tmp_path)
        assert "scipy.linalg" in loaded
        assert not [m for m in loaded if m.startswith("scipy.special")]


class TestOutputOverwritesInput:
    """A command exits 2 before it writes anything when an output would be
    one of its inputs, or the manifest beside its input CSV."""

    @staticmethod
    def _refused(tmp_path, capsys, argv, protected, unwritten=()):
        before = {path: path.read_bytes() for path in protected}
        assert run("--output-dir", tmp_path, *argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        err = captured.err
        assert "would overwrite the input" in err
        assert err.count(str(tmp_path)) == 2     # the output and the input
        for path, data in before.items():
            assert path.read_bytes() == data, path
        for name in unwritten:
            assert not (tmp_path / name).exists(), name
        return captured

    @pytest.mark.parametrize("flags, named", [
        (["--out", "stream"], "stream.csv"),
        (["--save-state", "stream.csv"], "stream.csv"),
        (["--save-state", "stream.manifest.json"], "stream.manifest.json"),
        (["--save-state", "gamma.txt"], "gamma.txt"),
    ])
    def test_detect(self, tmp_path, capsys, flags, named):
        stream = simulate(tmp_path, pi1=0.05, length=300)
        gamma = tmp_path / "gamma.txt"
        gamma.write_text("".join(f"{0.5 ** k!r}\n" for k in range(1, 40)))
        captured = self._refused(
            tmp_path, capsys, ["detect", "--input", stream, "--method",
                               "lord-decay", "--gamma-file", gamma,
                               "--out", "det", *flags],
            [stream, tmp_path / "stream.manifest.json", gamma],
            ["det.csv", "stream.metrics.json"])
        assert str(tmp_path / named) in captured.err

    def test_detect_resolves_the_output_dir(self, tmp_path, capsys):
        stream = simulate(tmp_path / "sub", pi1=0.05, length=300)
        self._refused(tmp_path / "sub", capsys,
                      ["detect", "--input", stream, "--method", "lord",
                       "--out", "stream"], [stream])

    def test_detect_may_rewrite_the_snapshot_it_resumes_from(self, tmp_path):
        stream = simulate(tmp_path, pi1=0.05, length=300)
        state = tmp_path / "state.json"
        for out, flags in (("h1", []), ("h2", ["--resume-from", state])):
            assert run("--output-dir", tmp_path, "detect", "--input", stream,
                       "--method", "lord-decay", "--out", out,
                       "--save-state", "state.json", *flags) == 0
        assert json.loads(state.read_text())["t"] == 600

    def test_score(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("x\n" + "".join(f"{k % 7}.5\n" for k in range(200)))
        (tmp_path / "series.manifest.json").write_text("{}\n")
        self._refused(tmp_path, capsys,
                      ["score", "--input", series, "--out", "series"],
                      [series, tmp_path / "series.manifest.json"])

    @pytest.mark.parametrize("out", ["det.manifest.json", "det.csv"])
    def test_verify(self, tmp_path, capsys, out):
        stream = simulate(tmp_path, pi1=0.05, length=300)
        assert run("--output-dir", tmp_path, "detect", "--input", stream,
                   "--method", "lord-decay", "--out", "det") == 0
        log, manifest = tmp_path / "det.csv", tmp_path / "det.manifest.json"
        capsys.readouterr()
        captured = self._refused(tmp_path, capsys,
                                 ["verify", "--input", log, "--manifest",
                                  manifest, "--out", out], [log, manifest])
        # refused before the log is read or checked
        assert str(tmp_path / out) in captured.err and captured.out == ""

    def test_sweep(self, tmp_path, capsys):
        config = tmp_path / "cfg.raw.csv"
        config.write_text("preset = fig4\nlength = 300\nreps = 1\n")
        self._refused(tmp_path, capsys,
                      ["sweep", "--config", config, "--out", "cfg"], [config],
                      ["cfg.agg.csv", "cfg.manifest.json"])


@pytest.mark.parametrize("rule", ["lord-decay", "lord-dep-decay",
                                  "saffron-decay", "addis-decay"])
def test_footer_r_delta_is_the_snapshot_accumulator(tmp_path, rule):
    # the footer's R_delta is the recurrence the controller accumulates
    stream = simulate(tmp_path, pi1=0.05, length=3000)
    assert run("--output-dir", tmp_path, "detect", "--input", stream,
               "--method", rule, "--out", "det",
               "--save-state", "state.json") == 0
    footer = json.loads((tmp_path / "det.metrics.json").read_text())
    state = json.loads((tmp_path / "state.json").read_text())
    assert footer["R"] > 10
    assert footer["r_delta"] == state["decayed_rejections"]
