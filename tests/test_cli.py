import codecs
import csv
import functools
import gzip
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from datetime import date, datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _fmt_by_isinstance_chain, reciprocal_log, write_log_csv
from wotnet import CategoryLabel, EventLog, Layer, SynthConfig, synth_log
from wotnet import cli
from wotnet.cli import OPTIONS, RunWriter, _fmt, main

GOOD_ROWS = "1,2,5,100\n3,2,1,200\n2,1,-10,300\n"


@pytest.fixture
def input_csv(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("rater,ratee,score,timestamp\n" + GOOD_ROWS)
    return path


@pytest.fixture
def synth_csv(tmp_path):
    """A moderately sized deterministic log for the analysis subcommands."""
    out = tmp_path / "gen"
    code = main(
        ["synth", "--users", "25", "--events", "400", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    return out / "synthetic.csv"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# summary and ingest-check


def test_summary_prints_counts(capsys, input_csv):
    code, out, _ = _run(capsys, "summary", "--input", str(input_csv))
    assert code == 0
    assert out == "users=3\nevents=3\ne_plus=2\ne_minus=1\n"


def test_summary_reads_gzip(capsys, tmp_path, input_csv):
    gz = tmp_path / "events.csv.gz"
    gz.write_bytes(gzip.compress(input_csv.read_bytes()))
    plain = _run(capsys, "summary", "--input", str(input_csv))
    assert plain[:2] == (0, "users=3\nevents=3\ne_plus=2\ne_minus=1\n")
    assert _run(capsys, "summary", "--input", str(gz)) == plain


def test_ingest_check_reports_rejections(capsys, tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text(GOOD_ROWS + "4,4,5,400\n5,6,99,500\n")
    out_dir = tmp_path / "check"
    code, out, err = _run(
        capsys, "ingest-check", "--input", str(path), "--out", str(out_dir)
    )
    assert code == 0
    assert "events=3" in out
    assert "rejected=2" in out
    assert "line 4" in err and "line 5" in err
    rejected = (out_dir / "rejected_lines.csv").read_text().splitlines()
    assert rejected[0] == "line_no,reason,text"
    assert len(rejected) == 3
    # a reason holds commas, as `score must be in [-10,-1] or [1,10]` does
    assert [len(row) for row in csv.reader(rejected)] == [3, 3, 3]


def test_rejected_lines_read_back_as_three_cells_each(tmp_path):
    # a line that opens with `"`, which opens a quoted cell, and reasons that hold `"` and `'`
    path = tmp_path / "quotes.csv"
    path.write_text('1,2,5,100\n"x,2,3,200\n1,1,3,300\n1,2,a\'"b,5\n')
    assert main(["ingest-check", "--input", str(path), "--out", str(tmp_path / "check")]) == 0
    text = (tmp_path / "check" / "rejected_lines.csv").read_text()
    assert list(csv.reader(io.StringIO(text))) == [
        ["line_no", "reason", "text"],
        ["2", "invalid literal for int() with base 10: '\"x'", '"x;2;3;200'],
        ["3", "self-rating rejected (user 1)", "1;1;3;300"],
        ["4", "invalid literal for int() with base 10: 'a\\'\"b'", "1;2;a'\"b;5"],
    ]
    assert "\n3,self-rating rejected (user 1),1;1;3;300\n" in text  # a cell with no `"` is written as it is


def test_strict_mode_rejects_bad_rows(capsys, tmp_path):
    path = tmp_path / "messy.csv"
    path.write_text(GOOD_ROWS + "4,4,5,400\n")
    code, _, err = _run(capsys, "summary", "--input", str(path), "--mode", "strict")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "line",
    [
        "99999999999999999999,2,5,400",
        "4,-99999999999999999999,5,400",
        "4,2,5,1e30",
    ],
)
def test_values_outside_int64_are_rejected_lines(capsys, tmp_path, line):
    path = tmp_path / "huge.csv"
    path.write_text(GOOD_ROWS + line + "\n")
    code, out, err = _run(capsys, "ingest-check", "--input", str(path))
    assert code == 0
    assert "events=3" in out and "rejected=1" in out
    assert "line 4" in err and "outside the int64 range" in err
    code, out, _ = _run(capsys, "summary", "--input", str(path))
    assert code == 0
    assert "events=3" in out
    code, _, err = _run(capsys, "summary", "--input", str(path), "--mode", "strict")
    assert code == 2
    assert "line 4" in err and "outside the int64 range" in err


# ---------------------------------------------------------------------------
# synth


def test_synth_then_summary_roundtrip(capsys, synth_csv):
    code, out, _ = _run(capsys, "summary", "--input", str(synth_csv))
    assert code == 0
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert values["events"] == "400"
    assert int(values["e_plus"]) + int(values["e_minus"]) == 400


def test_synth_zero_events(capsys, tmp_path):
    out = tmp_path / "empty"
    code, _, _ = _run(
        capsys, "synth", "--users", "5", "--events", "0", "--seed", "1", "--out", str(out)
    )
    assert code == 0
    code, text, _ = _run(capsys, "summary", "--input", str(out / "synthetic.csv"))
    assert code == 0
    assert text == "users=0\nevents=0\ne_plus=0\ne_minus=0\n"


def test_synth_same_seed_same_bytes(tmp_path):
    args = ["synth", "--users", "10", "--events", "50", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()


def test_synth_requires_seed(capsys, tmp_path):
    code, _, err = _run(
        capsys, "synth", "--users", "5", "--events", "10", "--out", str(tmp_path / "x")
    )
    assert code == 1
    assert "--seed is required" in err


def test_synth_invalid_config_is_usage_error(capsys, tmp_path):
    code, _, err = _run(
        capsys,
        "synth", "--users", "1", "--events", "10", "--seed", "1",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "n_users" in err


@pytest.mark.parametrize("flag, field", [("--scores", "score_distribution"), ("--times", "time_model")])
def test_synth_choices_are_checked_by_synth_config(capsys, tmp_path, flag, field):
    out = tmp_path / "x"
    code, _, err = _run(
        capsys, "synth", "--users", "5", "--events", "10", "--seed", "1", flag, "bogus", "--out", str(out)
    )
    assert code == 1
    assert f"wotnet: error: unknown {field} 'bogus'" in err
    assert not out.exists()


# SHA-256 of synthetic.csv and of the manifest's config (without `out`, as
# sorted JSON), recorded when the synth flags declared their own defaults
SYNTH_SHA256 = {
    ("--users", "25", "--events", "400", "--seed", "7"): (
        "356f4072ef3e90619d95cc452425e4dabcbe274ed2b405705ff8a241ffb0aa51",
        "f4d909f7bd4a3a61a36ae9330561b920ac4720b6ab07d810bf74d28c656305cd",
    ),
    (
        "--users", "40", "--events", "300", "--seed", "2", "--positive-fraction", "0.6",
        "--scores", "skewed", "--times", "poisson", "--t-start", "1400000000",
        "--t-span", "86400", "--rate", "0.02",
    ): (
        "ce403d98135e943a2beb9cd1a6b0bd29702f8bf5cd844507931d22141b537a11",
        "8acbbb122cacd440ef8c118a49fdf13f3ceaac30438a5049e6b6ac0b6499d2bd",
    ),
}  # fmt: skip


@pytest.mark.parametrize("flags", SYNTH_SHA256, ids=["defaults", "every-flag"])
def test_synth_outputs_match_recorded_digests(tmp_path, flags):
    out = tmp_path / "synth"
    assert main(["synth", *flags, "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    del config["out"]
    csv_digest = hashlib.sha256((out / "synthetic.csv").read_bytes()).hexdigest()
    config_digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    assert (csv_digest, config_digest) == SYNTH_SHA256[flags]


# ---------------------------------------------------------------------------
# exit codes


def test_missing_input_file_is_input_error(capsys, tmp_path):
    code, _, err = _run(capsys, "summary", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "not found" in err


def test_input_with_no_content_is_input_error(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = _run(capsys, "summary", "--input", str(empty))
    assert code == 2
    assert "empty input" in err


def _corrupt_inputs() -> dict[str, bytes]:
    """A log's bytes spoilt four ways that the ingest cannot read."""
    body = b"rater,ratee,score,timestamp\n" + b"".join(b"%d,%d,5,%d\n" % (i, i + 1, 100 + i) for i in range(200))
    packed = gzip.compress(body, mtime=0)

    def flip(data: bytes) -> bytes:
        return bytes(b ^ 0xFF for b in data)

    return {
        "truncated-gzip": packed[: len(packed) // 2],
        "corrupt-deflate": packed[:10] + flip(packed[10:30]) + packed[30:],
        "bad-gzip-checksum": packed[:-8] + flip(packed[-8:-4]) + packed[-4:],
        "not-utf-8": body + b"7,8,5,\xff00\n",
    }


@pytest.mark.parametrize("name", _corrupt_inputs())
@pytest.mark.parametrize("command", ["summary", "all"])
def test_corrupt_input_is_input_error(capsys, tmp_path, name, command):
    log = tmp_path / "log.csv"
    log.write_bytes(_corrupt_inputs()[name])
    out = tmp_path / "out"
    code, _, err = _run(capsys, command, "--input", str(log), "--out", str(out), "--seed", "1")
    assert code == 2
    assert err.startswith("wotnet: input error:")
    assert not out.exists()


def test_header_only_input_is_a_valid_empty_log(capsys, tmp_path):
    header_only = tmp_path / "header.csv"
    header_only.write_text("rater,ratee,score,timestamp\n")
    code, out, _ = _run(capsys, "summary", "--input", str(header_only))
    assert code == 0
    assert out.startswith("users=0\nevents=0")


def test_unknown_flag_exits_one(input_csv):
    with pytest.raises(SystemExit) as exc:
        main(["summary", "--input", str(input_csv), "--bogus"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("wotnet ")


def test_static_requires_seed(capsys, input_csv, tmp_path):
    code, _, err = _run(
        capsys, "static", "--input", str(input_csv), "--out", str(tmp_path / "s")
    )
    assert code == 1
    assert "--seed is required" in err


def test_analysis_requires_out(capsys, input_csv):
    code, _, err = _run(capsys, "dynamics", "--input", str(input_csv))
    assert code == 1
    assert "--out is required" in err


@pytest.mark.parametrize("command", ["categories", "synth"])
def test_an_out_that_names_a_file_is_a_usage_error(capsys, input_csv, tmp_path, command):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    given = ["--users", "5", "--events", "10", "--seed", "1"] if command == "synth" else ["--input", str(input_csv)]
    code, _, err = _run(capsys, command, *given, "--out", str(afile))
    assert code == 1
    assert err.startswith("wotnet: error: --out: cannot create the output directory:")
    assert afile.read_text() == "kept\n"


def test_a_byte_order_mark_is_not_part_of_a_config_or_annotation_file(input_csv, tmp_path):
    config = tmp_path / "run.conf"
    config.write_bytes(codecs.BOM_UTF8 + f"input = {input_csv}\n".encode())
    windows = tmp_path / "windows.csv"
    windows.write_bytes(codecs.BOM_UTF8 + b"bubble,1970-01-01,1970-01-02\n")
    out = tmp_path / "t"
    assert main(["temporal", "--config", str(config), "--out", str(out), "--annotations", str(windows)]) == 0
    assert (out / "daily_activity.csv").read_text().splitlines()[1].endswith(",bubble")


def test_one_sided_log_exits_0_without_its_punitive_rows(capsys, tmp_path):
    # a log with no punitive events has no punitive rows, and its manifest says which it left out
    path = tmp_path / "onesided.csv"
    path.write_text("1,2,5,100\n")
    out = tmp_path / "s"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the rows left out warn; the manifest keeps them
        code, _, _ = _run(capsys, "static", "--input", str(path), "--out", str(out), "--seed", "1")
    assert code == 0
    assert (out / "weight_distribution.csv").read_text() == "layer,weight,pmf,ccdf\nrewarding,5,1,1\n"
    assert "clustering_null.csv: row punitive left out: no node to average" in _manifest_of(out)["warnings"]


def test_temporal_omits_the_burstiness_of_zero_gaps(capsys, tmp_path):
    # user 2's rewarding gaps are 0 and 0, user 1's one punitive gap is 100
    path = tmp_path / "tied.csv"
    path.write_text("1,2,5,1300000000\n3,2,4,1300000000\n4,2,3,1300000000\n2,1,-2,1300000100\n3,1,-1,1300000200\n")
    out = tmp_path / "t"
    code, _, err = _run(capsys, "temporal", "--input", str(path), "--out", str(out))
    assert code == 0, err
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []
    # no whole-log or per-year row: each slice has one gap or only zero gaps
    assert (out / "burstiness.csv").read_text() == "year,layer,B,n_samples\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--tz-shift", "-13"),
        ("--topk", "0"),
        ("--null-samples", "0"),
        ("--thresholds", "0.9,0.95"),
        ("--seed", "-1"),
    ],
)
def test_invalid_configuration_values_exit_one(capsys, input_csv, tmp_path, flags):
    code, _, err = _run(
        capsys,
        "temporal", "--input", str(input_csv), "--out", str(tmp_path / "t"), *flags,
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["static", "synth"])
def test_negative_seed_exits_one_before_writing(capsys, input_csv, tmp_path, command):
    # the seed is checked with the other settings, not by the null model or the generator
    out = tmp_path / "out"
    given = ("--input", str(input_csv)) if command == "static" else ("--users", "5", "--events", "10")
    code, _, err = _run(capsys, command, *given, "--seed", "-1", "--out", str(out))
    assert code == 1
    assert err.startswith("wotnet: error: seed: "), err
    assert not list(out.glob("*.csv"))


# ---------------------------------------------------------------------------
# configuration file


def test_config_file_provides_defaults_and_flags_win(capsys, input_csv, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# analysis settings\n"
        "tz-shift = 0\n"
        "topk = 3\n"
        f"input = {input_csv}\n"
    )
    out = tmp_path / "d"
    code, _, _ = _run(
        capsys,
        "dynamics", "--config", str(config), "--out", str(out), "--topk", "5",
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["topk"] == 5  # flag beats config file
    assert manifest["config"]["tz_shift"] == 0  # config file beats default
    assert manifest["config"]["input"] == str(input_csv)


def test_config_file_unknown_key(capsys, input_csv, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("volume=11\n")
    code, _, err = _run(
        capsys, "summary", "--input", str(input_csv), "--config", str(config)
    )
    assert code == 1
    assert "unknown config entry" in err


def test_config_file_missing_is_input_error(capsys, input_csv, tmp_path):
    code, _, err = _run(
        capsys,
        "summary", "--input", str(input_csv), "--config", str(tmp_path / "nope.conf"),
    )
    assert code == 2
    assert "config file" in err


def test_config_file_not_utf8_is_input_error(capsys, input_csv, tmp_path):
    config = tmp_path / "latin.conf"
    config.write_bytes(b"seed=1\xff\n")
    code, _, err = _run(capsys, "summary", "--input", str(input_csv), "--config", str(config))
    assert code == 2
    assert err.startswith("wotnet: input error: cannot read config file:") and "can't decode byte 0xff" in err


# a text that each setting accepts (input and out are added per test), and
# one that it rejects where the setting has a check
VALID_TEXT = {
    "mode": "strict",
    "seed": "12",
    "tz_shift": "3",
    "thresholds": "0.2,0.8",
    "topk": "4",
    "null_samples": "5",
    "annotations": "windows.csv",
}
INVALID_TEXT = {
    "mode": "bogus",
    "seed": "x",
    "tz_shift": "15",
    "thresholds": "0.25",
    "topk": "0",
    "null_samples": "1.5",
}


def _summary_run(capsys, tmp_path, flags: dict, entries: dict):
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{key} = {text}\n" for key, text in entries.items()))
    argv = [arg for key, text in flags.items() for arg in (f"--{key.replace('_', '-')}", text)]
    return _run(capsys, "summary", "--config", str(config), *argv)


def test_every_option_parses_alike_as_flag_or_config_entry(capsys, input_csv, tmp_path, monkeypatch):
    # every log-reading subcommand reads the annotation file, so the valid text names one
    monkeypatch.chdir(tmp_path)
    (tmp_path / VALID_TEXT["annotations"]).write_text("bubble,2013-11-01,2013-12-31\n")
    out = tmp_path / "out"
    base = {"input": str(input_csv), "out": str(out)}
    valid = {**base, **VALID_TEXT}
    assert valid.keys() == OPTIONS.keys()
    for key, text in valid.items():
        configs = []
        for entries in ({}, {key: text}):
            flags = {k: v for k, v in {**base, key: text}.items() if k not in entries}
            assert _summary_run(capsys, tmp_path, flags, entries)[0] == 0
            configs.append(_manifest_of(out)["config"])
        assert configs[0] == configs[1], key
        assert configs[0][key] != OPTIONS[key].default, key


def test_every_invalid_option_text_exits_one_before_writing(capsys, input_csv, tmp_path):
    for key, text in INVALID_TEXT.items():
        out = tmp_path / key
        base = {"input": str(input_csv), "out": str(out)}
        # as a flag, and as a config entry that a valid flag would override
        for flags, entries in (({**base, key: text}, {}), ({**base, key: VALID_TEXT[key]}, {key: text})):
            code, _, err = _summary_run(capsys, tmp_path, flags, entries)
            assert code == 1, key
            where = f"{tmp_path / 'run.conf'}: line 1: " if entries else ""
            assert err.startswith(f"wotnet: error: {where}{key.replace('_', '-')}: "), err
            assert not out.exists(), key


# ---------------------------------------------------------------------------
# outputs, manifest, determinism


def _manifest_of(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def test_manifest_records_run(synth_csv, tmp_path):
    out = tmp_path / "cat"
    assert main(["categories", "--input", str(synth_csv), "--out", str(out)]) == 0
    manifest = _manifest_of(out)
    assert manifest["command"] == "categories"
    assert manifest["tool"] == "wotnet"
    assert manifest["input_sha256"] == hashlib.sha256(synth_csv.read_bytes()).hexdigest()
    produced = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == produced
    assert "categories.csv" in produced
    assert manifest["ingest"] == {"kept": 400, "rejected": 0, "users": 25}
    assert manifest["warnings"] == []

    messy = tmp_path / "messy.csv"
    messy.write_text(GOOD_ROWS + "4,4,5,400\n5,6,99,500\n")
    for command in ("ingest-check", "summary", "categories"):
        out = tmp_path / command
        assert main([command, "--input", str(messy), "--out", str(out)]) == 0
        assert _manifest_of(out)["ingest"] == {"kept": 3, "rejected": 2, "users": 3}


def _files_of(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def test_failed_run_leaves_the_earlier_run_as_it_was(capsys, input_csv, tmp_path):
    out = tmp_path / "run"
    assert main(["categories", "--input", str(input_csv), "--out", str(out)]) == 0
    assert _manifest_of(out)["command"] == "categories"
    before = _files_of(out)
    # a log past the calendar stops `all` in `temporal`, after `static` wrote its files
    far = tmp_path / "far.csv"
    far.write_text(FAR_LOG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # of the rows `static` leaves out
        code, _, err = _run(capsys, "all", "--input", str(far), "--out", str(out), "--seed", "1")
    assert code == 3
    assert "analysis error" in err
    assert _files_of(out) == before
    assert main(["categories", "--input", str(far), "--out", str(out)]) == 0
    manifest = _manifest_of(out)
    assert manifest["command"] == "categories"
    assert manifest["input_sha256"] == hashlib.sha256(far.read_bytes()).hexdigest()


def test_a_run_that_fails_in_its_last_stage_publishes_nothing(capsys, synth_csv, tmp_path, monkeypatch):
    def fail(writer, ctx):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(cli.STAGES, "trajectories", cli.STAGES["trajectories"]._replace(build=fail))
    earlier, new = tmp_path / "earlier", tmp_path / "new"
    assert main(["categories", "--input", str(synth_csv), "--out", str(earlier)]) == 0
    before = _files_of(earlier)
    for out in (earlier, new):
        code, _, err = _run(capsys, "all", "--input", str(synth_csv), "--out", str(out), "--seed", "1", "--null-samples", "2")
        assert (code, err) == (3, "wotnet: analysis error: injected failure\n")
    assert _files_of(earlier) == before
    assert not new.exists()
    assert not list(tmp_path.glob(".*"))  # no staging directory is left beside either


def test_an_existing_empty_out_keeps_its_mode(input_csv, tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    out.chmod(0o700)
    umask = os.umask(0o022)  # a staging directory renamed over `out` would be 0o755
    try:
        assert main(["categories", "--input", str(input_csv), "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o700
    assert _manifest_of(out)["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_manifest_hashes_the_bytes_that_were_analysed(input_csv, tmp_path, monkeypatch):
    original = hashlib.sha256(input_csv.read_bytes()).hexdigest()
    summary = cli.STAGES["summary"]

    def rewrite_then_summarize(writer, ctx):
        input_csv.write_text("rater,ratee,score,timestamp\n1,2,5,100\n")
        summary.build(writer, ctx)

    monkeypatch.setitem(cli.STAGES, "summary", summary._replace(build=rewrite_then_summarize))
    out = tmp_path / "run"
    assert main(["summary", "--input", str(input_csv), "--out", str(out)]) == 0
    assert hashlib.sha256(input_csv.read_bytes()).hexdigest() != original
    assert _manifest_of(out)["input_sha256"] == original


def test_rewiring_star_layers_accepts_no_swap_and_warns_nothing(tmp_path):
    # both layers are stars: every double-edge swap proposal is rejected
    # (weights 1 and 3: each weight sub-layer of the rewarding star needs a degree-2 node)
    stars = [(1, u, 1 + 2 * (u > 3), 10 * u) for u in (2, 3, 4, 5)]
    stars += [(6, u, -2, 100 + u) for u in (2, 3, 4)]
    log_csv = tmp_path / "stars.csv"
    write_log_csv(EventLog(stars), log_csv)
    out = tmp_path / "static"
    argv = ["static", "--input", str(log_csv), "--out", str(out), "--seed", "1"]
    argv += ["--null-samples", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert _manifest_of(out)["warnings"] == []
    rows = [line.split(",") for line in (out / "clustering_null.csv").read_text().splitlines()]
    assert [row[5:7] for row in rows] == [["swaps_target", "min_swaps_done"], ["40", "0"], ["30", "0"]]


def test_stage_warning_is_recorded_in_the_manifest(tmp_path):
    # on this log the clustering spectrum of a layer bins to constant means,
    # so its trend is undefined and `spectrum_trend` warns
    events = [(3, 7, -1, 10), (4, 5, 1, 20), (3, 2, 2, 30), (6, 7, 2, 40), (1, 7, -1, 50)]
    events += [(7, 8, -1, 60), (6, 5, 2, 70), (8, 5, 2, 80), (8, 1, 1, 90), (1, 8, 1, 100)]
    events += [(8, 2, -1, 110), (4, 2, 1, 120), (1, 7, -1, 130)]
    log_csv = tmp_path / "constant.csv"
    write_log_csv(EventLog(events), log_csv)
    out = tmp_path / "static"
    argv = ["static", "--input", str(log_csv), "--out", str(out), "--seed", "1"]
    argv += ["--null-samples", "1"]
    # each warning is also passed on to the caller
    with pytest.warns(RuntimeWarning) as passed_on:
        assert main(argv) == 0
    constant = "An input array is constant; the correlation coefficient is not defined."
    assert _manifest_of(out)["warnings"] == [constant]
    assert [str(w.message) for w in passed_on] == [constant]


NO_NODE = "no node to average"
FEW_BINS = "fewer than two log bins"


@pytest.mark.parametrize(
    "users, events, left_out",
    [
        # w_eq_1 has no node of degree 2, and the punitive spectrum one log bin
        (30, 60, [("norm_breaking_clustering.csv", "degree_ge_2,w_eq_1", NO_NODE), ("neighbor_degree_trend.csv", "punitive", FEW_BINS)]),
        (20, 30, [("neighbor_degree_trend.csv", "punitive", FEW_BINS)]),
    ],
)
def test_all_leaves_out_the_rows_a_small_log_cannot_give(capsys, tmp_path, users, events, left_out):
    gen = tmp_path / "gen"
    assert main(["synth", "--users", str(users), "--events", str(events), "--seed", "1", "--out", str(gen)]) == 0
    out = tmp_path / "all"
    argv = ["all", "--input", str(gen / "synthetic.csv"), "--out", str(out), "--seed", "1", "--null-samples", "2"]
    with pytest.warns(RuntimeWarning):
        code, _, err = _run(capsys, *argv)
    assert code == 0, err
    manifest = _manifest_of(out)
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["warnings"] == [f"{table}: row {row} left out: {why}" for table, row, why in left_out]
    written = {
        table: [line.rsplit(",", 1)[0] for line in (out / table).read_text().splitlines()[1:]]
        for table in ("norm_breaking_clustering.csv", "neighbor_degree_trend.csv")
    }
    every_row = {
        "norm_breaking_clustering.csv": [f"{c},{s}" for c in ("all_nodes", "degree_ge_2") for s in ("w_eq_1", "w_gt_1")],
        "neighbor_degree_trend.csv": ["rewarding", "punitive"],
    }
    missing = {(table, row) for table, row, _ in left_out}
    assert written == {table: [row for row in rows if (table, row) not in missing] for table, rows in every_row.items()}


@st.composite
def _small_logs(draw):
    """Logs of up to 40 events among up to 25 users, with rewarding events
    only, punitive events only, both or none, tied times and times at or
    before 1970."""
    start = draw(st.sampled_from([-2_208_988_800, -86_400, 0, 1_300_000_000]))
    pool = draw(st.lists(st.integers(0, 3 * 86_400), min_size=1, max_size=4))
    offset = st.sampled_from(pool) | st.integers(0, 2 * 365 * 86_400)
    pair = st.tuples(st.integers(1, 25), st.integers(1, 25)).filter(lambda p: p[0] != p[1])
    scores = draw(st.sampled_from([(1, 2, 10), (-10, -2, -1), (-10, -2, -1, 1, 2, 10)]))
    event = st.tuples(pair, st.sampled_from(scores), offset)
    return EventLog([(a, b, score, start + t) for (a, b), score, t in draw(st.lists(event, max_size=40))])


@given(_small_logs())
@settings(max_examples=30, deadline=None)
def test_all_completes_on_small_logs_of_one_layer_or_two(log):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the rows left out warn; the manifest keeps them
        write_log_csv(log, Path(tmp) / "log.csv")
        out = Path(tmp) / "all"
        assert main(["all", "--input", str(Path(tmp) / "log.csv"), "--out", str(out), "--seed", "1", "--null-samples", "2"]) == 0
        assert _manifest_of(out)["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_null_of_a_reciprocal_log_covers_every_degree(tmp_path):
    # the rewired replicas keep every projected degree, so every degree
    # bucket of the spectrum gets a null value
    log_csv = tmp_path / "reciprocal.csv"
    write_log_csv(reciprocal_log(n_users=80, n_pairs=300, seed=8), log_csv)
    out = tmp_path / "static"
    argv = ["static", "--input", str(log_csv), "--out", str(out), "--seed", "4"]
    argv += ["--null-samples", "3"]
    assert main(argv) == 0
    lines = (out / "clustering_spectrum.csv").read_text().splitlines()
    assert lines[0].endswith(",null_mean,null_std")
    assert len(lines) > 10
    assert all(line.split(",")[-2] and line.split(",")[-1] for line in lines[1:])


def test_no_temp_files_left_behind(synth_csv, tmp_path):
    # the first run renames its staging directory to `out`; the second moves its files in one by one
    out = tmp_path / "dyn"
    for _ in range(2):
        assert main(["dynamics", "--input", str(synth_csv), "--out", str(out)]) == 0
    assert not list(tmp_path.glob(".dyn.*"))
    assert _manifest_of(out)["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")


def test_leftover_temp_file_is_neither_read_nor_listed(input_csv, tmp_path):
    out = tmp_path / "sum"
    out.mkdir()
    staged = tmp_path / ".sum.0123456789abcdef"  # the staging directory of a killed run
    staged.mkdir()
    (staged / "summary.csv").write_text("left,over\n")
    stale = out / "summary.csv.tmp"  # a foreign file
    stale.write_text("left,over\n")
    assert main(["summary", "--input", str(input_csv), "--out", str(out)]) == 0
    assert (out / "summary.csv").read_text() == "users,events,e_plus,e_minus\n3,3,2,1\n"
    assert stale.read_text() == "left,over\n"
    assert _manifest_of(out)["outputs"] == ["summary.csv"]
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json",
        "summary.csv",
        "summary.csv.tmp",
    ]
    stale = out / "synthetic.csv.tmp"
    stale.write_text("left,over\n")
    assert main(["synth", "--users", "5", "--events", "10", "--seed", "1", "--out", str(out)]) == 0
    assert stale.read_text() == "left,over\n"
    assert _manifest_of(out)["outputs"] == ["synthetic.csv"]
    assert "left" not in (out / "synthetic.csv").read_text()
    assert list(tmp_path.glob(".sum.*")) == [staged]
    assert [p.name for p in staged.iterdir()] == ["summary.csv"]
    assert (staged / "summary.csv").read_text() == "left,over\n"


def test_reruns_are_byte_identical_except_manifest_timestamp(synth_csv, tmp_path):
    args = ["--input", str(synth_csv), "--seed", "11", "--null-samples", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["static"] + args + ["--out", str(a)]) == 0
    assert main(["static"] + args + ["--out", str(b)]) == 0
    names_a = sorted(p.name for p in a.iterdir())
    assert names_a == sorted(p.name for p in b.iterdir())
    for name in names_a:
        if name == "manifest.json":
            continue
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ma, mb = _manifest_of(a), _manifest_of(b)
    for m in (ma, mb):
        m.pop("created_utc")
        m["config"].pop("out")
    assert ma == mb


def test_dynamics_outputs(synth_csv, tmp_path):
    out = tmp_path / "dyn"
    assert main(["dynamics", "--input", str(synth_csv), "--out", str(out)]) == 0
    gini_lines = (out / "gini_series.csv").read_text().splitlines()
    assert gini_lines[0] == "date,gini_plus,gini_minus"
    assert len(gini_lines) > 1
    stability = (out / "topk_stability.csv").read_text().splitlines()
    assert stability[0] == (
        "date,J_plus,J_minus,J_global,SJ_plus,SJ_minus,SJ_global,truncated"
    )


# SHA-256 of every CSV that `all` writes on a seeded synthetic log.  The
# four daily-fold files were recorded from the per-day loop over
# `snapshot_series`, the rest from the row-by-row CSV writer and the
# line-by-line ingest; the column writer and the array ingest must write the
# same bytes.  `clustering_null.csv` was recorded again when it gained its last
# column, `swaps_gap`; its other columns are as they were.
FOLD_SHA256 = {
    "burstiness.csv": "f15d15805af79e17c40bead7f7a1a962d3d73eecc58b5f9c1d14fb7fcbd839b4",
    "categories.csv": "a69e9dde1b14ff07c659dd8c55ebd925d4a3da382b79e43c49bfde293db1a8ae",
    "category_summary.csv": "9757b4fd2e32da49d422e9926d2486c9a94721ca76dee5087cdfd27e595361a5",
    "circadian_profile.csv": "fff49a56ea59a1747bdf44640affa8d890ba0d92049079fafbea249a47e51314",
    "clustering_binned.csv": "30be3df0238fd941051cbfebb393c3f25a89ce208a4c74d5a3afa8db6c169bd0",
    "clustering_null.csv": "2d541c404b2643f2c72a66a2af592a3c1b80816c6175bac728930ec133ae9499",
    "clustering_spectrum.csv": "545962cf41c9fdfead59c69558fbcf0e758b85ab8868ae27dec442efa3d85ef4",
    "daily_activity.csv": "4dde07f9695705f27d3f788797ab0ffa5e60c7affb7d60a8544ac44ae17f1664",
    "degree_distributions.csv": "5b9dff3c442bdfc09746b3ddbdf819757e9dc238c469014f1f24534f3540eedb",
    "gini_series.csv": "e113a2a62bcd2c08189faa36032e274edb22e9e856fac09de578632b0abd5754",
    "interevent_binned_ccdf.csv": "1f19a250c1c95c45b72ab03086bd04765ddb2bc17d93fbece7308663b54d2046",
    "interevent_distribution.csv": "1c6bed9b1115fbd8dbe744b75366a6d7b9e9e3b9139297d37fa8a3058c033367",
    "neighbor_degree_binned.csv": "34ac3c21628381666f3e5e8f44e5995ae448108bac7b6840cd6613ebd4aa0278",
    "neighbor_degree_spectrum.csv": "c504cf1148d342eb2296acb2f5b19a5a5eb2a40749f6a195fba0177f9dddec74",
    "neighbor_degree_trend.csv": "2faf6437c89a7c469538298175132c479d1380fb2b71c8d2c6de1e584c5405af",
    "norm_breaking_clustering.csv": "a917afe1b00cf9c20b6127cdc03934fd2044c878e8a0ef332430e8e06a33e033",
    "ranking.csv": "96615120c08d1707efd94aa81131e417e59920b818bcc3e6558ce97d4e6a1b1c",
    "reputation_by_indegree.csv": "a80dad7aba0d8c5819d30c24bd51698339578014f9042b485233beb96c1e7a6c",
    "reputation_distributions.csv": "5db15c82723d8384d1ee2c955d684f2163bb89f1f46aec5e6adbbd29843ce04d",
    "reputation_scatter.csv": "7a9855f8ce3d56f1880968fd5b1a6e862321bccfa14fb948d4647cf7f3d3ed8b",
    "reputation_scatter_slopes.csv": "d55de960398c90ff5a9f7f06bce406d737d74fab96c0771a4f6f0e87d678a225",
    "tau_matrix.csv": "4711dc695142010ba5388202582610a6278456d4c39138d333b30c6429c79f23",
    "topk_stability.csv": "3bc2262ce074973270995e87d048c7ff9c4dd2a0f9209b9df50ffa3abf03034a",
    "trajectories_top_negative.csv": "04876dcb95ff6d0eac243e22f3ccf9c3b06c33f3daf18f03343618ff38aedaf6",
    "trajectories_top_positive.csv": "02d35cbf021b27fad090d05071556943d0905f8bbde927e49121bbe52d7ddba3",
    "weekly_profile.csv": "75eff27cd8da0ff86feb238ca14cbfbdca38e944a6387e927a4c18561a049a19",
    "weight_distribution.csv": "f761dbe635e7e35d6f7c0daf0dccdf971351c5a350135c180828b64d7b5b99a5",
}


# The files of a second seeded run that differ from FOLD_SHA256, recorded
# before the stages handed the writer typed columns: one time zone, a top-k
# deeper than the 300 users (every stability row truncated) and annotation
# windows that overlap the log and each other.
SECOND_RUN_SHA256 = {
    **FOLD_SHA256,
    "circadian_profile.csv": "c024bdf60ded6e0530441e95a5c59e51820606fc4faa19fee6edeeba6edd6997",
    "daily_activity.csv": "6399d0413c72780dc32a54ff44d213b732e07dda7012a71fbfe475f38bc6ea05",
    "topk_stability.csv": "fc8afa80f25f6958d5b0571a08ebf72cf0ad19225cae232aa6d572862f7997c1",
    "trajectories_top_negative.csv": "f504afd02177d0f2b9dec34f3f95ae1671054d24522a3be1820437fd0cd08311",
    "trajectories_top_positive.csv": "8870750d53d2d93c23c0463c4b5ff34d11aa77fcabb02d7b3b651dcb1328f48c",
    "weekly_profile.csv": "ad2372937d343a03a8826e24780b5d8639de446f367963f4ea49d3e1713a1db4",
}


# The daily-fold files of `all --seed 1 --null-samples 1 --topk 5` on a log
# with many more users than events per day (1,883 users, 1,500 events over
# 400 days), recorded while the fold ranked every user on every day; the
# fold over candidate columns must write the same bytes.
SPARSE_FOLD_SHA256 = {
    "gini_series.csv": "620871f312b1e022b99c66f808d5276e16e303f38041c84369c05932860c863c",
    "topk_stability.csv": "56240e43093279f3277222acb77f9b74c21230ff9112396ebffe998866c50cf0",
    "trajectories_top_positive.csv": "6607104f418edf85ae71ca19b608affccca01364e3948021cd95734f9cfb996a",
    "trajectories_top_negative.csv": "4d531e9112e99c991e67175584beb84453425b47e4a31583c18c16b0b87f488b",
}


def _seeded_run_digests(tmp_path, *flags, config=SynthConfig(n_users=300, n_events=2000, seed=11, t_span=150 * 86_400)):
    """SHA-256 of every CSV of `all --seed 1 --null-samples 1 FLAGS` on a
    seeded log, by default of 300 users and 2,000 events over 150 days."""
    log = synth_log(config)
    write_log_csv(log, tmp_path / "log.csv")
    out = tmp_path / "out"
    argv = ["all", "--input", str(tmp_path / "log.csv"), "--out", str(out)]
    assert main(argv + ["--seed", "1", "--null-samples", "1", *flags]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.glob("*.csv")}


def test_fold_outputs_match_recorded_digests(tmp_path):
    assert _seeded_run_digests(tmp_path, "--topk", "5") == FOLD_SHA256


def test_all_builds_no_node_metrics_records(tmp_path, monkeypatch):
    # every stage reads the per-user counters as `metric_columns`
    def refuse(*args, **kwargs):
        raise AssertionError("node_metrics called")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "wotnet" and hasattr(module, "node_metrics"):
            monkeypatch.setattr(module, "node_metrics", refuse)
    assert _seeded_run_digests(tmp_path, "--topk", "5") == FOLD_SHA256


def test_all_exits_3_when_the_fold_disagrees_with_the_counters(synth_csv, tmp_path, monkeypatch, capsys):
    # the fold's last-day reputations come from its own running sums, and are
    # checked against `metric_columns`, which counts them on another path
    fold_of = cli.daily_fold

    def corrupted(log, k):
        fold = fold_of(log, k)
        fold.rho[1, 0] += 1
        return fold

    monkeypatch.setattr(cli, "daily_fold", corrupted)
    argv = ["all", "--input", str(synth_csv), "--out", str(tmp_path / "all"), "--seed", "1"]
    assert main(argv + ["--null-samples", "1"]) == 3
    assert "internal consistency check failed" in capsys.readouterr().err


def test_sparse_log_fold_outputs_match_recorded_digests(tmp_path):
    config = SynthConfig(n_users=3000, n_events=1500, seed=13, t_span=400 * 86_400)
    digests = _seeded_run_digests(tmp_path, "--topk", "5", config=config)
    assert {name: digests[name] for name in SPARSE_FOLD_SHA256} == SPARSE_FOLD_SHA256


def test_second_seeded_run_matches_recorded_digests(tmp_path):
    windows = tmp_path / "windows.csv"
    windows.write_text(
        "label,start,end\n"
        "spring,2011-03-01,2011-04-15\n"
        "summer,2011-06-01,2011-07-31\n"
        "late,2011-07-20,2011-12-31\n"
    )
    flags = ("--tz-shift", "0", "--topk", "1000", "--annotations", str(windows))
    assert _seeded_run_digests(tmp_path, *flags) == SECOND_RUN_SHA256
    daily = (tmp_path / "out" / "daily_activity.csv").read_text()
    assert ",spring\n" in daily and ",summer;late\n" in daily


def test_cell_formatting_matches_the_isinstance_chain():
    cells = [
        None, True, False, 0, 1, -7, 2**70, np.int64(0), np.int64(-3), np.True_,
        0.1, -2.5, 1 / 3, 1e-20, float("inf"), float("nan"), np.float64(2 / 3), np.float64(5),
        date(1969, 12, 31), date(2011, 3, 13), datetime(2011, 3, 13, 4, 5),
        *Layer, *CategoryLabel, "", "text",
    ]
    for cell in cells:
        assert _fmt(cell) == _fmt_by_isinstance_chain(cell), repr(cell)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, -1e16, 5e-324, 1e-20, float("nan"), float("inf"), -float("inf"), 1 / 3]),
)
# no comma or line break, and some `%` to be kept as it is
_TEXTS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"), max_size=5) | st.sampled_from(
    ["%", "%%", "%d", "%s%", "100%"]
)
_INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, 0, -1])


@functools.cache  # built once for each of the seven row counts
def _column_strategies(n):
    """(column as a stage or a caller hands it to the writer, its cells as
    the reference reads them) of n rows."""
    cells = lambda elements: st.lists(elements, min_size=n, max_size=n)  # noqa: E731
    enums = st.sampled_from([*Layer, *CategoryLabel])
    as_is = lambda c: (c, c)  # noqa: E731
    # the array's own numpy scalars, which the reference writes with str()
    own_cells = lambda a: (a, list(a))  # noqa: E731
    return st.one_of(
        cells(_INT64).map(lambda c: (np.array(c, dtype=np.int64), c)),
        cells(_FLOATS).map(lambda c: (np.array(c, dtype=np.float64), c)),
        cells(st.none() | _FLOATS).map(  # None-masked floats
            lambda c: (cli._masked(np.array([0.0 if v is None else v for v in c]), np.array([v is not None for v in c], dtype=bool)), c)
        ),
        cells(st.booleans()).map(lambda c: (np.array(c, dtype=bool), c)),
        cells(st.dates()).map(lambda c: (np.array(c, dtype="datetime64[D]"), c)),
        cells(enums).map(lambda c: ([m.value for m in c], c)),  # enums, as the stages pass them
        cells(enums).map(lambda c: (np.array([m.value for m in c], dtype=str), c)),
        cells(_TEXTS).map(as_is),
        # arrays of other dtypes and lists of raw values, written cell by cell
        cells(st.floats(width=32)).map(lambda c: own_cells(np.array(c, dtype=np.float32))),
        cells(st.integers(-(2**31), 2**31 - 1)).map(lambda c: own_cells(np.array(c, dtype=np.int32))),
        cells(st.datetimes()).map(lambda c: own_cells(np.array(c, dtype="datetime64[s]"))),
        cells(st.integers(-(2**70), 2**70)).map(as_is),
        cells(_INT64.map(np.int64)).map(as_is),
        cells(_FLOATS).map(as_is),
        cells(st.none() | _FLOATS).map(as_is),
        cells(st.booleans()).map(as_is),
        cells(st.dates()).map(as_is),
        cells(enums).map(as_is),
        cells(st.none() | st.booleans() | _INT64 | _FLOATS | st.dates() | enums | _TEXTS).map(as_is),
    )


# constant cells of every row of a block, such as a layer or a time-zone shift
_CONSTANTS = st.one_of(
    st.none(), st.booleans(), _INT64, st.integers(-(2**70), 2**70), _FLOATS, st.dates(),
    st.sampled_from([*Layer, *CategoryLabel]), _TEXTS,
)  # fmt: skip


@st.composite
def _blocks(draw):
    """(block for the writer, its rows as the reference reads them)."""
    n = draw(st.integers(0, 6))
    cells = draw(
        st.lists(st.one_of(_CONSTANTS.map(lambda c: (c, None)), _column_strategies(n)), min_size=1, max_size=6)
    )
    block = [cell for cell, _ in cells]
    if all(column is None for _, column in cells):
        return block, [block]  # constants only: one row
    rows = [[cell if column is None else column[i] for cell, column in cells] for i in range(n)]
    return block, rows


@given(st.lists(_blocks(), max_size=4), st.integers(1, 7))
@settings(max_examples=400, deadline=None)
def test_column_writer_equals_the_row_formatter(blocks, slice_rows):
    # any mix of typed columns and constant cells, in blocks of 0-6 rows or
    # in no block at all (a header-only file), is written as the per-cell
    # reference writes each row
    header = [f"c{i}" for i in range(max((len(block) for block, _ in blocks), default=1))]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_SLICE_ROWS", slice_rows):
        with RunWriter(Path(tmp)) as writer:
            writer.write_csv("t.csv", header, *(block for block, _ in blocks))
        data = (Path(tmp) / "t.csv").read_bytes()
    rows = [",".join(map(_fmt_by_isinstance_chain, row)) for _, block_rows in blocks for row in block_rows]
    assert data == ("\n".join([",".join(header), *rows]) + "\n").encode("utf-8")


def test_column_writer_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="unequal"), RunWriter(tmp_path) as writer:
        writer.write_csv("t.csv", ["a", "b"], [np.arange(2), ["3"]])
    # the second block fails after the header and the first block were streamed
    with pytest.raises(ValueError, match="unequal"), RunWriter(tmp_path) as writer:
        writer.write_csv("t.csv", ["a", "b"], ["x", np.arange(1)], [np.arange(2), ["3"]])
    assert not (tmp_path / "t.csv").exists()
    assert not list(tmp_path.parent.glob(f".{tmp_path.name}.*"))


def test_column_writer_streams_a_table_one_slice_at_a_time(tmp_path):
    writes = []

    class Spy(io.TextIOWrapper):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    def spy_open(path, mode, **kwargs):
        return Spy(open(path, mode + "b"), **kwargs)

    n, slice_rows = 1000, 64
    values = np.linspace(-1, 1, n)
    block = [Layer.REWARDING, np.arange(n).astype("datetime64[D]"), np.arange(n), values, cli._masked(values, np.arange(n) % 3 > 0)]
    header = ["layer", "day", "i", "value", "masked"]
    with mock.patch.object(cli, "_SLICE_ROWS", slice_rows), mock.patch.object(cli, "open", spy_open, create=True):
        with RunWriter(tmp_path) as writer:
            writer.write_csv("t.csv", header, block, ["constants", "only"], block)
    # the header, each slice of each column block and the row of constants, each its own write
    assert [text.count("\n") for text in writes] == [1, *[slice_rows] * 15, 40, 1, *[slice_rows] * 15, 40]
    assert "".join(writes) == (tmp_path / "t.csv").read_text()
    assert writes[1].startswith("rewarding,1970-01-01,0,-1,\nrewarding,1970-01-02,1,")


def test_dynamics_of_header_only_log_writes_empty_series(capsys, tmp_path):
    header_only = tmp_path / "header.csv"
    header_only.write_text("rater,ratee,score,timestamp\n")
    out = tmp_path / "dyn"
    code, _, err = _run(capsys, "dynamics", "--input", str(header_only), "--out", str(out))
    assert (code, err) == (0, "")
    assert (out / "gini_series.csv").read_text() == "date,gini_plus,gini_minus\n"
    assert (out / "topk_stability.csv").read_text() == (
        "date,J_plus,J_minus,J_global,SJ_plus,SJ_minus,SJ_global,truncated\n"
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["gini_series.csv", "topk_stability.csv"]
    assert manifest["ingest"] == {"kept": 0, "rejected": 0, "users": 0}


def test_trajectories_selection_flag(synth_csv, tmp_path):
    out = tmp_path / "traj"
    assert (
        main(
            [
                "trajectories",
                "--input", str(synth_csv),
                "--out", str(out),
                "--selection", "by-category",
            ]
        )
        == 0
    )
    lines = (out / "trajectories_by_category.csv").read_text().splitlines()
    assert lines[0] == "user,seq_index,rho,category"
    assert len(lines) > 1
    user, seq, rho, category = lines[1].split(",")
    assert seq == "1"
    assert category in ("trustworthy", "untrusted", "controversial", "uncategorized")


def test_temporal_annotations_joined(capsys, tmp_path):
    events = tmp_path / "events.csv"
    # two events on 2013-04-01 (UTC), one a week later
    t0 = 1364774400
    events.write_text(f"1,2,5,{t0}\n3,2,1,{t0 + 3600}\n2,1,-1,{t0 + 7 * 86400}\n")
    windows = tmp_path / "win.csv"
    windows.write_text("label,start,end\npeak,2013-03-15,2013-04-10\n")
    out = tmp_path / "t"
    code, _, _ = _run(
        capsys,
        "temporal",
        "--input", str(events),
        "--out", str(out),
        "--annotations", str(windows),
    )
    assert code == 0
    daily = (out / "daily_activity.csv").read_text().splitlines()
    assert daily[0] == "tz_shift_hours,date,count_plus,count_minus,annotations"
    in_window = [l for l in daily if l.endswith(",peak")]
    assert in_window
    assert any("2013-04-01" in l for l in in_window)


def test_temporal_rejects_an_annotation_label_with_a_comma(capsys, tmp_path):
    # unquoted in the daily output, the label would add a sixth cell to its rows
    events = tmp_path / "events.csv"
    events.write_text("1,2,5,1383264000\n3,2,1,1383350400\n")
    windows = tmp_path / "win.csv"
    windows.write_text('"bull, run",2013-11-01,2013-11-03\n')
    out = tmp_path / "t"
    code, _, err = _run(capsys, "temporal", "--input", str(events), "--out", str(out), "--annotations", str(windows))
    assert code == 2
    assert err.startswith("wotnet: input error:") and "line 1: label 'bull, run'" in err


@pytest.mark.parametrize(
    "windows, message",
    [
        ("label,start,end\nbubble,2013-11-01,2013-13-01\n", "line 2: invalid ISO date"),
        ("bubble,2013-11-01,2013-13-01\ncrash,2014-02-01,2014-02-20\n", "line 1: invalid ISO date"),
        (None, "Is a directory"),
        ("label,start,end\ninv,2014-01-01,2013-01-01\n", "line 2: window 'inv': start after end"),
    ],
)
def test_a_bad_annotation_file_stops_all_before_it_writes(capsys, synth_csv, tmp_path, windows, message):
    path = tmp_path / "win.csv"
    if windows is None:
        path.mkdir()
    else:
        path.write_text(windows)
    out = tmp_path / "all"
    code, _, err = _run(capsys, "all", "--input", str(synth_csv), "--out", str(out), "--seed", "1", "--annotations", str(path))
    assert code == 2
    assert err.startswith("wotnet: input error:") and message in err
    assert not out.exists()


# two events past `datetime.date`'s range, which ingest accepts and only the calendar cannot hold
FAR_LOG = "rater,ratee,score,timestamp\n1,2,5,-200000000000\n2,1,-3,200000000000\n"


@pytest.mark.parametrize("command", ["all", "temporal", "dynamics", "trajectories"])
def test_a_log_past_the_calendar_stops_a_calendar_run_before_it_writes(capsys, input_csv, tmp_path, command):
    log = tmp_path / "far.csv"
    log.write_text(FAR_LOG)
    out = tmp_path / "out"
    assert main(["categories", "--input", str(input_csv), "--out", str(out)]) == 0  # an earlier run
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, _, err = _run(capsys, command, "--input", str(log), "--out", str(out), "--seed", "1", "--null-samples", "2")
    assert (code, err) == (3, "wotnet: analysis error: date value out of range\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_only_a_stage_that_places_a_day_past_the_calendar_refuses_the_log(tmp_path):
    # 03:00 UTC on the calendar's first day: in range at shift 0, not at the default -6 h
    start = (date.min - date(1970, 1, 1)).days * 86_400 + 3 * 3600
    early, far = tmp_path / "early.csv", tmp_path / "far.csv"
    early.write_text(f"1,2,5,{start}\n2,1,-3,{start + 86_400}\n")
    far.write_text(FAR_LOG)
    runs = [
        (["temporal", "--input", str(early)], 3),
        (["temporal", "--input", str(early), "--tz-shift", "0"], 0),
        (["dynamics", "--input", str(early)], 0),  # the fold places the days at shift 0
        (["trajectories", "--input", str(early)], 0),
        (["trajectories", "--input", str(far), "--selection", "by-category"], 0),  # no fold
        (["static", "--input", str(far), "--seed", "1", "--null-samples", "2"], 0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # static leaves out rows such a log cannot give
        codes = [main([*argv, "--out", str(tmp_path / f"run{i}")]) for i, (argv, _) in enumerate(runs)]
    assert codes == [code for _, code in runs]


def test_all_runs_every_analysis(synth_csv, tmp_path):
    out = tmp_path / "all"
    assert main(["all", "--input", str(synth_csv), "--out", str(out), "--seed", "5", "--null-samples", "3"]) == 0
    produced = {p.name for p in out.iterdir()}
    assert produced == {*FOLD_SHA256, "manifest.json"}  # the tables of every analysis
    manifest = _manifest_of(out)
    assert manifest["command"] == "all"
    assert sorted(manifest["outputs"]) == sorted(produced - {"manifest.json"})


def test_calls_in_one_process_write_what_a_fresh_process_writes(synth_csv, tmp_path):
    # the parser is built once per process, so no value may pass from one call to the next
    assert cli.build_parser() is cli.build_parser()
    assert main(["static", "--input", str(synth_csv), "--out", str(tmp_path / "static"), "--seed", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["all", "--input", str(synth_csv), "--out", str(tmp_path / "bad"), "--topk", "7", "--bogus"])
    assert exc.value.code == 1
    argv = ["all", "--input", str(synth_csv), "--seed", "2", "--topk", "3"]
    assert main([*argv, "--out", str(tmp_path / "here")]) == 0
    code = "import sys; from wotnet.cli import main; sys.exit(main(sys.argv[1:]))"
    path = os.pathsep.join(p for p in (str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "fresh")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        check=True,
    )
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    manifests = [_manifest_of(here), _manifest_of(fresh)]
    for m in manifests:
        m.pop("created_utc")
        m["config"].pop("out")
    assert manifests[0] == manifests[1]


def test_all_writes_the_bytes_of_the_separate_subcommands(synth_csv, tmp_path):
    common = ["--input", str(synth_csv), "--seed", "5", "--null-samples", "2", "--topk", "3"]
    assert main(["all", *common, "--out", str(tmp_path / "all")]) == 0
    separate = {}
    for command in (
        ["static"],
        ["categories"],
        ["temporal"],
        ["dynamics"],
        ["trajectories", "--selection", "top-positive"],
        ["trajectories", "--selection", "top-negative"],
    ):
        out = tmp_path / "-".join(command)
        assert main([*command, *common, "--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            assert path.name not in separate
            separate[path.name] = path.read_bytes()
    together = {p.name: p.read_bytes() for p in (tmp_path / "all").glob("*.csv")}
    assert together.keys() == separate.keys()
    for name, data in together.items():
        assert data == separate[name], name


def test_categories_csv_contents(tmp_path, capsys):
    events = tmp_path / "events.csv"
    events.write_text("1,2,10,100\n3,2,10,200\n1,4,-10,300\n2,4,-10,400\n")
    out = tmp_path / "cat"
    code, _, _ = _run(
        capsys, "categories", "--input", str(events), "--out", str(out)
    )
    assert code == 0
    lines = (out / "categories.csv").read_text().splitlines()
    assert lines[0] == "user,rho_plus,rho_minus,rho,r,label"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert rows["2"][5] == "trustworthy"
    assert rows["4"][5] == "untrusted"
    assert rows["1"][5] == "uncategorized"
    assert rows["2"][1] == "20" and rows["2"][4] == "0"
    assert rows["4"][3] == "-20" and rows["4"][4] == "1"
