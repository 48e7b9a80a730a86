import json
import subprocess
import sys

import numpy as np
import pytest

from setp import serialize
from setp.cli import format_order_spec, parse_order_spec
from setp.core import AprioriOrder
from setp.transforms import gen_random_original, gen_random_simplified, gen_random_tsp


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "setp.cli", *args], capture_output=True, text=True
    )


class TestOrderSpec:
    def test_parse(self):
        assert parse_order_spec("0+,2-,1+", 3) == AprioriOrder((0, 2, 1), (0, 1, 0))

    def test_roundtrip(self):
        order = AprioriOrder((0, 3, 1, 2), (0, 1, 1, 0))
        assert parse_order_spec(format_order_spec(order), 4) == order

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            parse_order_spec("0+,0-", 2)
        with pytest.raises(ValueError):
            parse_order_spec("0*,1+", 2)


class TestSerialization:
    @pytest.mark.parametrize(
        "obj",
        [
            gen_random_simplified(4, seed=1),
            gen_random_original(4, 6, 2, seed=1),
            gen_random_tsp(5, seed=1),
        ],
        ids=["simplified", "original", "tsp"],
    )
    def test_lossless_roundtrip(self, obj, tmp_path):
        path = tmp_path / "inst.json"
        serialize.save(obj, path)
        back = serialize.load(path)
        assert serialize.dumps(back) == serialize.dumps(obj)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(serialize.FormatError):
            serialize.load(path)
        path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(serialize.FormatError):
            serialize.load(path)


class TestValidateCommand:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(3, seed=0), path)
        res = run_cli("validate", str(path))
        assert res.returncode == 0
        assert res.stdout.strip() == "OK"

    def test_invalid_probability(self, tmp_path):
        inst = gen_random_simplified(2, seed=0)
        doc = serialize.to_document(inst)
        doc["p"][0] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        res = run_cli("validate", str(path))
        assert res.returncode == 1
        assert "violation=" in res.stdout

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not a document")
        res = run_cli("validate", str(path))
        assert res.returncode == 2


class TestEvaluateCommand:
    def test_methods_agree_all_p_one(self, tmp_path):
        inst = gen_random_simplified(4, seed=2)
        from setp.core import SimplifiedInstance

        inst = SimplifiedInstance(D=inst.D, R=inst.R, p=np.ones(4))
        path = tmp_path / "s.json"
        serialize.save(inst, path)
        values = []
        for method in ("closed", "enum", "mc"):
            res = run_cli("evaluate", str(path), "0+,1+,2+,3+", "--method", method)
            assert res.returncode == 0
            line = [l for l in res.stdout.splitlines() if l.startswith("value=")][0]
            values.append(float(line.removeprefix("value=")))
        assert values[0] == values[1]  # exact methods agree bit-for-bit
        assert values[2] == pytest.approx(values[0], rel=1e-12)  # mc: mean rounding only

    def test_bad_order_usage_error(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(3, seed=2), path)
        res = run_cli("evaluate", str(path), "0+,0+,1+")
        assert res.returncode == 2

    def test_mc_byte_identical(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(5, seed=4), path)
        args = ("evaluate", str(path), "0+,1-,2+,3-,4+", "--method", "mc", "--samples", "2000", "--seed", "11")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == 0


class TestSolveCommand:
    def test_exact_beats_heuristic(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(5, seed=6), path)
        exact = run_cli("solve", "--exact", str(path))
        heur = run_cli("solve", "--heuristic", str(path))
        assert exact.returncode == heur.returncode == 0
        ce = float(exact.stdout.split("cost=")[1].splitlines()[0])
        ch = float(heur.stdout.split("cost=")[1].splitlines()[0])
        assert ch >= ce - 1e-12

    def test_exact_guard_refusal(self, tmp_path):
        path = tmp_path / "s.json"
        serialize.save(gen_random_simplified(10, seed=6), path)
        res = run_cli("solve", "--exact", str(path))
        assert res.returncode == 1
        assert "guard" in res.stderr

    def test_original_auto_simplified(self, tmp_path):
        path = tmp_path / "o.json"
        serialize.save(gen_random_original(4, 5, 2, seed=9), path)
        res = run_cli("solve", "--exact", str(path))
        assert res.returncode == 0
        assert "epsilon=" in res.stdout


class TestReduceCommand:
    def test_tsp_counts(self, tmp_path):
        path = tmp_path / "t.json"
        serialize.save(gen_random_tsp(3, seed=0), path)
        out = tmp_path / "t.simp.json"
        res = run_cli("reduce", str(path), "--from", "tsp", "-o", str(out))
        assert res.returncode == 0
        simp = serialize.load(out)
        assert simp.size == 6 and simp.n == 3
        assert np.all(simp.p == 1.0)
        vmap = serialize.load_vertex_map(str(out) + ".map")
        assert vmap == {x: x // 2 for x in range(6)}

    def test_original_has_depot_edge(self, tmp_path):
        path = tmp_path / "o.json"
        inst = gen_random_original(4, 5, 2, seed=3)
        serialize.save(inst, path)
        out = tmp_path / "o.simp.json"
        res = run_cli("reduce", str(path), "--from", "original", "-o", str(out))
        assert res.returncode == 0
        simp = serialize.load(out)
        assert simp.n == inst.n + 1
        assert simp.p[-1] == 1.0

    def test_bad_epsilon(self, tmp_path):
        path = tmp_path / "t.json"
        serialize.save(gen_random_tsp(4, seed=0), path)
        res = run_cli("reduce", str(path), "--from", "tsp", "--epsilon", "-1")
        assert res.returncode == 2


class TestGenCommand:
    def test_byte_identical_files(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run_cli("gen", "--kind", "simplified", "--n", "5", "--seed", "7", "-o", str(a))
        run_cli("gen", "--kind", "simplified", "--n", "5", "--seed", "7", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_original_passes_validate(self, tmp_path):
        path = tmp_path / "o.json"
        res = run_cli("gen", "--kind", "original", "--v", "5", "--e", "8", "--seed", "1", "-o", str(path))
        assert res.returncode == 0
        assert run_cli("validate", str(path)).returncode == 0

    def test_tsp_symmetric(self, tmp_path):
        path = tmp_path / "t.json"
        run_cli("gen", "--kind", "tsp", "--n", "6", "--seed", "2", "-o", str(path))
        tsp = serialize.load(path)
        assert np.array_equal(tsp.C, tsp.C.T)
        assert tsp.m == 6

    def test_infeasible_usage_error(self):
        res = run_cli("gen", "--kind", "original", "--v", "2", "--e", "1")
        assert res.returncode == 2


class TestVerifyCommand:
    def test_oracle_small(self):
        res = run_cli("verify", "--suite", "oracle", "--size", "6", "--seeds", "20")
        assert res.returncode == 0
        assert "result=pass" in res.stdout

    def test_reduction_default_size(self):
        res = run_cli("verify", "--suite", "reduction", "--seeds", "2")
        assert res.returncode == 0
        assert "lifted_optimal=2" in res.stdout

    @pytest.mark.parametrize("size", ["2", "10"])
    def test_reduction_size_out_of_range_usage_error(self, size):
        res = run_cli("verify", "--suite", "reduction", "--size", size, "--seeds", "1")
        assert res.returncode == 2
        assert "error=" in res.stderr and "Traceback" not in res.stderr

    def test_eulerian_contrast(self):
        res = run_cli("verify", "--suite", "eulerian-contrast")
        assert res.returncode == 0
        assert "cost_spread=" in res.stdout
