import gzip
import hashlib
import json
from pathlib import Path

import pytest

from conftest import reciprocal_log
from wotnet import EventLog, write_log_csv
from wotnet.cli import main

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
    code, out, _ = _run(capsys, "summary", "--input", str(gz))
    assert code == 0
    assert "events=3" in out


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


def test_analysis_error_on_degenerate_log(capsys, tmp_path):
    # a log with no punitive events cannot produce a weight distribution there
    path = tmp_path / "onesided.csv"
    path.write_text("1,2,5,100\n")
    code, _, err = _run(
        capsys,
        "static", "--input", str(path), "--out", str(tmp_path / "s"), "--seed", "1",
    )
    assert code == 3
    assert "analysis error" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--tz-shift", "-13"),
        ("--topk", "0"),
        ("--null-samples", "0"),
        ("--thresholds", "0.9,0.95"),
    ],
)
def test_invalid_configuration_values_exit_one(capsys, input_csv, tmp_path, flags):
    code, _, err = _run(
        capsys,
        "temporal", "--input", str(input_csv), "--out", str(tmp_path / "t"), *flags,
    )
    assert code == 1
    assert "error" in err


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


def test_failed_run_leaves_no_stale_manifest(capsys, input_csv, tmp_path):
    out = tmp_path / "run"
    assert main(["categories", "--input", str(input_csv), "--out", str(out)]) == 0
    assert _manifest_of(out)["command"] == "categories"
    # a positive-only log has no punitive weights, so `all` stops in `static`
    positive = tmp_path / "positive.csv"
    positive.write_text("1,2,5,100\n2,3,4,200\n3,1,2,300\n")
    code, _, err = _run(capsys, "all", "--input", str(positive), "--out", str(out), "--seed", "1")
    assert code == 3
    assert "analysis error" in err
    assert not (out / "manifest.json").exists()
    assert main(["categories", "--input", str(positive), "--out", str(out)]) == 0
    manifest = _manifest_of(out)
    assert manifest["command"] == "categories"
    assert manifest["input_sha256"] == hashlib.sha256(positive.read_bytes()).hexdigest()


def test_stalled_rewiring_is_recorded_in_the_manifest(tmp_path):
    # both layers are stars: no double-edge swap can ever apply
    # (weights 1 and 3: each weight sub-layer of the rewarding star needs a degree-2 node)
    stars = [(1, u, 1 + 2 * (u > 3), 10 * u) for u in (2, 3, 4, 5)]
    stars += [(6, u, -2, 100 + u) for u in (2, 3, 4)]
    log_csv = tmp_path / "stars.csv"
    write_log_csv(EventLog(stars), log_csv)
    out = tmp_path / "static"
    argv = ["static", "--input", str(log_csv), "--out", str(out), "--seed", "1"]
    argv += ["--null-samples", "2"]
    # each warning is also passed on to the caller
    with pytest.warns(RuntimeWarning, match="^rewiring stalled") as passed_on:
        assert main(argv) == 0
    plus = "rewiring stalled: 0/40 swaps after 800 attempts"
    minus = "rewiring stalled: 0/30 swaps after 600 attempts"
    assert _manifest_of(out)["warnings"] == [plus, plus, minus, minus]
    assert [str(w.message) for w in passed_on] == [plus, plus, minus, minus]


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
    out = tmp_path / "dyn"
    assert main(["dynamics", "--input", str(synth_csv), "--out", str(out)]) == 0
    assert not list(out.glob("*.tmp"))


def test_leftover_temp_file_is_neither_read_nor_listed(input_csv, tmp_path):
    out = tmp_path / "sum"
    out.mkdir()
    stale = out / "summary.csv.tmp"  # left behind by a crashed run
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
    assert not [p for p in out.glob("*.tmp") if p.name not in ("summary.csv.tmp", "synthetic.csv.tmp")]


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


def test_all_runs_every_analysis(synth_csv, tmp_path):
    out = tmp_path / "all"
    assert (
        main(
            [
                "all",
                "--input", str(synth_csv),
                "--out", str(out),
                "--seed", "5",
                "--null-samples", "3",
            ]
        )
        == 0
    )
    produced = {p.name for p in out.iterdir()}
    expected = {
        "weight_distribution.csv",
        "degree_distributions.csv",
        "reputation_distributions.csv",
        "clustering_spectrum.csv",
        "clustering_null.csv",
        "norm_breaking_clustering.csv",
        "neighbor_degree_trend.csv",
        "tau_matrix.csv",
        "ranking.csv",
        "reputation_by_indegree.csv",
        "categories.csv",
        "category_summary.csv",
        "reputation_scatter.csv",
        "daily_activity.csv",
        "interevent_distribution.csv",
        "burstiness.csv",
        "circadian_profile.csv",
        "weekly_profile.csv",
        "gini_series.csv",
        "topk_stability.csv",
        "trajectories_top_positive.csv",
        "trajectories_top_negative.csv",
        "manifest.json",
    }
    assert expected <= produced
    manifest = _manifest_of(out)
    assert manifest["command"] == "all"
    assert sorted(manifest["outputs"]) == sorted(produced - {"manifest.json"})


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
