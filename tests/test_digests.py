"""scripts/digests.py, the byte-identity gate, on a tiny workload in this process."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import emdet.engine

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import pipeline  # noqa: E402  (the benchmark's workloads, imported as digests.py does)

SCRIPT = ROOT / "scripts" / "digests.py"
spec = importlib.util.spec_from_file_location("digests", SCRIPT)
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)

TINY = pipeline.Workload({"n_train": 12, "n_test": 6, "proposals_per_image": 10},
                         {"mode": "hard", "k": 64, "em_iterations": 2,
                          "sgd_steps_per_m_step": 40})


def write(path, run):
    path.write_text(json.dumps({"digests": run}))
    return str(path)


def test_two_runs_give_equal_digests(tmp_path, capsys):
    first, second = digests.digest_run(TINY, 3), digests.digest_run(TINY, 3)
    assert first == second
    # weights, generator, detections, mAP, CorLoc, three (strong, weak) trace
    # points and the fields of each chunk of the one traced plan
    assert {"weights", "generator", "detections", "map", "corloc", "trace.2.weak"} <= set(first)
    assert any(key.startswith("plan.0.0.") for key in first)
    code = digests.main(["--compare", write(tmp_path / "a.json", first),
                         write(tmp_path / "b.json", second)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"0 of {len(first)} digests differ"


def test_a_weight_off_by_one_bit_fails_the_compare(tmp_path, capsys, monkeypatch):
    parent = digests.digest_run(TINY, 3)
    run_em = emdet.engine.run_em

    def nudged(*args, **kwargs):
        result = run_em(*args, **kwargs)
        result.params.weights[0, 0] = np.nextafter(result.params.weights[0, 0], np.inf)
        return result

    monkeypatch.setattr(emdet.engine, "run_em", nudged)
    change = digests.digest_run(TINY, 3)
    code = digests.main(["--compare", write(tmp_path / "parent.json", parent),
                         write(tmp_path / "change.json", change)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("weights: ") for line in lines)
    assert not any(line.startswith(("generator: ", "trace.", "plan.")) for line in lines)


def test_a_key_on_one_side_only_differs():
    assert digests.compare({"a": "1", "b": "2"}, {"a": "1"}) == ["b"]
    with pytest.raises(SystemExit):
        digests.main([])  # neither --out nor --compare
