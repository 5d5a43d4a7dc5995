"""In-process CLI tests on the tiny curve (fast) plus a few paper-curve
surface checks."""

import json

import pytest

from bnpair import cli


def run_cli(args, capsys):
    code = cli.entry(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParams:
    def test_tiny_params(self, capsys):
        code, out, _ = run_cli(["params", "--t", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert int(doc["p"], 16) == 103
        assert int(doc["r"], 16) == 97

    def test_invalid_t_fails(self, capsys):
        code, _, err = run_cli(["params", "--t", "0"], capsys)
        assert code == 1
        assert err.strip()

    def test_paper_flag(self, capsys):
        code, out, _ = run_cli(["params", "--paper"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["params_id"].startswith("bn254-")


class TestPair:
    def _points(self):
        from bnpair import curve, params, tower

        par = params.tiny_params()
        P = curve.g1_generator(par)
        Q = curve.g2_to_affine(curve.g2_generator(par), par)
        p_hex = [format(v, "x") for v in P.to_ints(par)]
        q_hex = [
            format(v, "x")
            for coord in (Q[0], Q[1])
            for v in tower.fp2_to_ints(coord, par)
        ]
        return p_hex, q_hex

    def test_pair_verifies(self, capsys):
        p_hex, q_hex = self._points()
        code, out, _ = run_cli(
            ["pair", "--t", "1", "--p", *p_hex, "--q", *q_hex, "--verify"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verified_mu_r"] is True
        assert len(doc["pairing_output"]) == 12

    def test_off_curve_rejected(self, capsys):
        p_hex, q_hex = self._points()
        p_hex[1] = format((int(p_hex[1], 16) + 1) % 103, "x")
        code, _, err = run_cli(
            ["pair", "--t", "1", "--p", *p_hex, "--q", *q_hex], capsys
        )
        assert code == 1
        assert err.strip()

    def test_miller_only(self, capsys):
        p_hex, q_hex = self._points()
        code, out, _ = run_cli(
            ["pair", "--t", "1", "--p", *p_hex, "--q", *q_hex, "--miller-only"],
            capsys,
        )
        assert code == 0
        assert "miller_output" in json.loads(out)


class TestVectors:
    def test_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "vectors.json"
        code, _, _ = run_cli(
            [
                "vectors",
                "--t",
                "1",
                "--count",
                "3",
                "--seed",
                "7",
                "--out",
                str(out_file),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["entries"]) == 3
        code, out, _ = run_cli(["vectors", "--t", "1", "--verify", str(out_file)], capsys)
        assert code == 0
        assert "ok" in out.lower() or json.loads(out).get("verified")

    def test_tampered_vector_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "vectors.json"
        run_cli(
            ["vectors", "--t", "1", "--count", "1", "--seed", "7", "--out", str(out_file)],
            capsys,
        )
        doc = json.loads(out_file.read_text())
        entry = doc["entries"][0]
        entry["a"] = format(int(entry["a"], 16) + 1, "x")
        out_file.write_text(json.dumps(doc))
        code, _, err = run_cli(["vectors", "--t", "1", "--verify", str(out_file)], capsys)
        assert code == 1

    def test_deterministic_for_seed(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            run_cli(
                ["vectors", "--t", "1", "--count", "2", "--seed", "11", "--out", str(f)],
                capsys,
            )
        assert json.loads(f1.read_text())["entries"] == json.loads(f2.read_text())["entries"]


class TestCost:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            ["cost", "--t", "1", "--function", "fp2_mul", "--arch", "karatsuba"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["m"] == 3
        assert doc["predicted_cycles"] > 0

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            [
                "cost",
                "--t",
                "1",
                "--function",
                "fp6_mul",
                "--arch",
                "2mb",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        assert "," in out.splitlines()[0]

    def test_pairing_reports_published_gap(self, capsys):
        code, out, _ = run_cli(
            ["cost", "--paper", "--function", "pairing", "--arch", "2mb"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["published_ms"] == 26.4
        assert doc["published_err"] == pytest.approx(
            doc["predicted_ms"] / doc["published_ms"] - 1, abs=1e-4
        )
        # the 2mb model is far above the published time (see criterion 9)
        assert doc["published_err"] > 1.0

    def test_pairing_reports_published_cycles(self, capsys):
        code, out, _ = run_cli(
            ["cost", "--paper", "--function", "pairing", "--arch", "karatsuba"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["published_cycles"] == 1_122_817
        # 1,122,817 cycles at 100 MHz: a tenth of the published 112.28 ms
        assert doc["published_cycles_ms"] == pytest.approx(11.2282, abs=1e-4)
        assert doc["published_ms"] / doc["published_cycles_ms"] == pytest.approx(10, rel=1e-3)

    def test_tiny_pairing_has_no_published_gap(self, capsys):
        code, out, _ = run_cli(
            ["cost", "--t", "1", "--function", "pairing", "--arch", "2mb"], capsys
        )
        assert code == 0
        assert "published_ms" not in json.loads(out)

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(
            ["cost", "--t", "1", "--function", "nope", "--arch", "sw"], capsys
        )
        assert code != 0

    @pytest.mark.parametrize(
        "function",
        [
            "fp2_mul", "fp2_sqr", "fp6_mul", "fp12_mul", "fp12_sqr",
            "cyclotomic_sqr", "sparse_mul", "doubling_step", "addition_step",
            "miller_loop", "final_exponentiation", "pairing",
        ],
    )
    def test_every_function_id_is_known(self, function, capsys):
        code, out, _ = run_cli(
            ["cost", "--t", "1", "--function", function, "--arch", "sw"], capsys
        )
        assert code == 0
        assert json.loads(out)["counts"]


class TestSelftest:
    def test_quick(self, capsys):
        code, out, _ = run_cli(["selftest", "--level", "quick"], capsys)
        assert code == 0
