import dataclasses
import hashlib
import json
import logging
import os
from pathlib import Path

import pytest

from dhtfed.cli import main
from dhtfed.harness import ScenarioConfig

from conftest import platforms

INI = """
[scenario]
name = clidemo
nodes = 16
fanout = 4
tree_count = 2
assignment = single
rounds = 2
seed = 6

[data]
topics = 2
points_per_node = 60
test_points = 80
"""


def write_cfg(tmp_path, text=INI, name="demo.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_records_and_summaries(tmp_path, capsys):
    out = str(tmp_path / "results")
    rc = main(["run", write_cfg(tmp_path), "--out", out, "--quiet"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "clidemo.jsonl"))
    assert os.path.exists(os.path.join(out, "clidemo-summary.csv"))
    assert os.path.exists(os.path.join(out, "clidemo-summary.txt"))
    with open(os.path.join(out, "clidemo.jsonl")) as fh:
        first = json.loads(fh.readline())
    assert first["scenario"] == "clidemo"
    assert 0.0 <= first["accuracy"] <= 1.0


# sha256 of the round log `dhtfed run configs/demo.ini` writes: each
# tree-round's loss, accuracy and per-node bytes, as the CLI computes them.
DEMO_ROUND_LOG = "c89f9d6c53002678e467e09dfa472d5d52f276ad573231a846e27ccc0cb2ea7a"


def test_run_writes_the_pinned_demo_round_log(tmp_path):
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"
    assert main(["run", str(demo), "--out", str(tmp_path), "--quiet"]) == 0
    log = (tmp_path / "demo-rounds.jsonl").read_bytes()
    assert hashlib.sha256(log).hexdigest() == DEMO_ROUND_LOG, platforms()


def test_run_flag_overrides(tmp_path):
    out = str(tmp_path / "results")
    rc = main(["run", write_cfg(tmp_path), "--out", out, "--quiet",
               "--rounds", "1", "--seed", "99"])
    assert rc == 0
    with open(os.path.join(out, "clidemo.jsonl")) as fh:
        rounds = {json.loads(line)["round"] for line in fh}
    assert rounds == {0}


def test_run_logs_progress_unless_quiet(tmp_path, caplog):
    out = str(tmp_path / "results")
    try:
        assert main(["run", write_cfg(tmp_path), "--out", out]) == 0
        loud = [r for r in caplog.records if r.name == "dhtfed.harness"]
        caplog.clear()
        assert main(["run", write_cfg(tmp_path), "--out", out, "--quiet"]) == 0
        quiet = [r for r in caplog.records if r.name == "dhtfed.harness"]
    finally:
        logging.getLogger("dhtfed").setLevel(logging.NOTSET)
    assert len(loud) == 2 * 2  # rounds x trees
    assert quiet == []


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[scenario]\nseed = 1\nbogus = 2\n", "bad.ini")
    rc = main(["run", bad, "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("nodes = 3\n[scenario]\nseed = 1\n", "File contains no section headers. file: '{}', line: 1"),
    ("[scenario]\nseed = 1\nseed = 2\n",
     "While reading from '{}' [line 3]: option 'seed' in section 'scenario' already exists"),
    ("[scenario]\nseed = 1\n[scenario]\nnodes = 3\n",
     "While reading from '{}' [line 3]: section 'scenario' already exists"),
    ("[scenario]\nseed = 1\nname = 50%\n", "{}: [scenario] name: '%' must be followed by"),
    ("[scenario]\nseed = 1\ngarbage\n", "Source contains parsing errors: '{}' [line 3]"),
    ("[DEFAULT]\nseed = 1\n[data]\ntopics = 3\n", "unknown config section [DEFAULT]"),
    ("[scenario]\nseed = 1\nnodes = sixty\n", "bad int 'sixty' for nodes"),
    ("[scenario]\nseed = 1\n[data]\nseparation = far\n", "bad float 'far' for separation"),
    ("[scenario]\nseed = 1\n[failures]\nevents = 0 x fail\n",
     "failure event needs a number time and an integer node_index: '0 x fail'"),
])
def test_run_rejects_a_malformed_config_file(text, message, tmp_path, capsys):
    """A file configparser cannot read, or a value that is not a number,
    is a usage error that names the file or the key, not a traceback."""
    path = write_cfg(tmp_path, text, "bad.ini")
    rc = main(["run", path, "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 2
    assert f"error: {message.format(path)}" in capsys.readouterr().err


def test_run_rejects_bad_overrides_before_any_output(tmp_path, capsys):
    out = tmp_path / "r"
    for flag, value, message in (("--nodes", "0", "nodes and rounds must be positive"),
                                 ("--fanout", "0", "fanout_cap must be >= 1")):
        rc = main(["run", write_cfg(tmp_path), "--out", str(out), "--quiet",
                   flag, value])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_route_check_passes(capsys):
    rc = main(["route-check", "--nodes", "128", "--lookups", "300", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "misdelivered=0" in out
    assert "failed" not in out  # without --fail the output is as before


def test_route_check_after_failures_routes_live_to_live(capsys):
    rc = main(["route-check", "--nodes", "300", "--lookups", "300", "--seed", "5",
               "--fail", "60"])
    assert rc == 0
    assert "n=300 failed=60 lookups=300 misdelivered=0" in capsys.readouterr().out
    assert main(["route-check", "--nodes", "30", "--fail", "30"]) == 2
    assert "--fail must be in [0, 30)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["route-check", "--lookups", "0"],
    ["route-check", "--lookups", "-5"],
    ["route-check", "--nodes", "0"],
    ["agg-check", "--trials", "0"],
    ["agg-check", "--trials", "-3"],
])
def test_audits_reject_vacuous_counts(argv, capsys):
    """An audit that checks nothing must not pass: a count below 1 is a
    usage error that names its flag, before any work."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be a positive integer, got {int(argv[2])}" in err


def test_agg_check_passes(capsys):
    rc = main(["agg-check", "--trials", "25", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worst_flat_mean_error" in out
    assert int(out.split("privacy_audited_messages=")[1].split()[0]) > 0


def test_agg_check_fails_when_leaves_upload_raw_updates(monkeypatch, capsys):
    # Every session uploads as with 0 gossip hops, whatever hops the trial
    # drew: a leaf's raw update then reaches the root outside its friends.
    round_config = ScenarioConfig.round_config
    monkeypatch.setattr(ScenarioConfig, "round_config",
                        lambda self: dataclasses.replace(round_config(self), gossip_k=0))
    rc = main(["agg-check", "--trials", "25", "--seed", "3"])
    assert rc == 1
    assert "agg-check: privacy audit failed on trial" in capsys.readouterr().out


def test_report_aggregates_results(tmp_path, capsys):
    out = str(tmp_path / "results")
    main(["run", write_cfg(tmp_path), "--out", out, "--quiet"])
    rc = main(["report", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "report.csv"))
    assert "clidemo" in capsys.readouterr().out


def test_report_with_no_results_fails(tmp_path, capsys):
    rc = main(["report", "--out", str(tmp_path / "nothing")])
    assert rc == 1


@pytest.mark.parametrize("line, match", [
    ('{"scenario": "s", "round": 1}', "not a metrics record"),
    ("[1, 2]", "not a metrics record"),
    ("{not json", "not a metrics record"),
    ('{"scenario": "s", "round": "1", "topic": 0, "accuracy": 0.5, "f1": 0.5, '
     '"dissemination": 1.0, "max_ingress_bytes": 0, "mode": "centralized"}',
     "round is not of type int"),
])
def test_report_rejects_a_malformed_record(tmp_path, capsys, line, match):
    out = tmp_path / "results"
    out.mkdir()
    good = ('{"accuracy": 0.5, "dissemination": 1.0, "f1": 0.5, "max_ingress_bytes": 0, '
            '"mode": "centralized", "round": 0, "scenario": "s", "topic": 0}')
    (out / "s.jsonl").write_text(f"{good}\n{line}\n")
    rc = main(["report", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "s.jsonl:2: " in err and match in err


def test_sweep_grid(tmp_path):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--nodes", "12", "--points", "40,80", "--seeds", "1",
               "--rounds", "1", "--fanout", "4", "--topics", "2",
               "--out", out, "--quiet"])
    assert rc == 0
    files = os.listdir(out)
    assert "sweep-summary.csv" in files
    # 2 sizes x 1 seed x (single + mixed)
    assert sum(1 for f in files if f.endswith(".jsonl")) == 4


def test_sweep_with_dissemination(tmp_path):
    out = str(tmp_path / "sweep2")
    rc = main(["sweep", "--nodes", "16", "--points", "40", "--seeds", "1",
               "--rounds", "1", "--fanout", "4", "--topics", "2",
               "--sizes-mib", "0.25,0.5", "--out", out, "--quiet"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "dissemination.csv"))
