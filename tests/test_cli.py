import json
import time

import pytest

from splitsim import cli
from splitsim.cli import EXIT_ASSERTION, EXIT_INVALID, EXIT_OK, main


@pytest.fixture
def sweep_config(tmp_path):
    cfg = {
        "scheme": "trotter",
        "t": 1.0,
        "k_list": [8, 16, 32],
        "seed": 7,
        "n_qubits": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_report_to_stdout(self, sweep_config, capsys):
        assert main(["simulate", "--config", str(sweep_config)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["scheme"] == "trotter"
        assert len(doc["points"]) == 3
        assert doc["points"][0]["K"] == 8
        assert doc["points"][0]["error"] > 0

    def test_report_to_file(self, sweep_config, tmp_path):
        out = tmp_path / "report.json"
        assert main(["simulate", "--config", str(sweep_config), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["scheme"] == "trotter"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scheme": "na", "t": 1.0, "k_list": [2, 4, 8]}))
        assert main(["simulate", "--config", str(path)]) == EXIT_INVALID


    @pytest.mark.parametrize(
        "override, message",
        [
            ({"panel_size": 0}, "panel_size"),
            ({"k_list": [8.7, 16, 32]}, "integer"),
            ({"t": "1"}, "finite"),
            ({"d": 200, "n_qubits": None}, "supported maximum"),
            # m(m-1)/2 commutators would take GBs before any check ran.
            ({"d": 8, "m": 3000, "n_qubits": None}, "m=3000"),
            ({"min_r2": "banana"}, "unknown config keys"),
            ({"out": 5}, "out must be a path string"),
            ({"bend_residual_tol": "x", "k_list": [8, 16, 32, 64, 128]}, "bend_residual_tol"),
            ({"bend_residual_tol": -0.1}, "bend_residual_tol"),
            ({"drop_bend_points": "no"}, "drop_bend_points"),
            # exp(-i H t) overflows: the run would report a NaN error.
            (
                {"scheme": "trotter", "t": 1e308, "k_list": [1, 2], "seed": 0,
                 "n_qubits": None, "d": 4, "m": 2, "norm_bound": 10},
                "overflow",
            ),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, override, message):
        doc = {"scheme": "alg1", "t": 1.0, "k_list": [8, 16, 32], "seed": 7, "n_qubits": 2}
        doc.update(override)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        start = time.perf_counter()
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_INVALID
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_oversized_panel_exits_two(self, tmp_path, capsys):
        # 10**6 states at d=64 would be a 65 GB projector stack; the cap is
        # checked before anything is built.
        path = tmp_path / "panel.json"
        path.write_text(json.dumps(
            {"scheme": "alg1", "t": 1.0, "k_list": [1], "d": 64, "panel_size": 1000000}
        ))
        start = time.perf_counter()
        assert main(["simulate", "--config", str(path)]) == EXIT_INVALID
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "panel_size" in err


    @pytest.mark.parametrize("override", [{"d": 100}, {"m": 40}])
    def test_spin_chain_ignores_random_termset_caps(self, tmp_path, capsys, override):
        # A spin chain never reads d or m; they are echoed, not capped.
        doc = {"scheme": "trotter", "t": 1, "k_list": [1, 2], "n_qubits": 2}
        points = []
        for cfg in (doc, {**doc, **override}):
            path = tmp_path / "chain.json"
            path.write_text(json.dumps(cfg))
            assert main(["simulate", "--config", str(path)]) == EXIT_OK
            points.append(json.loads(capsys.readouterr().out)["points"])
        assert points[1] == points[0]

    def test_non_json_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_non_object_config_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "list.json"
        path.write_text("[]")
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err

    def test_degenerate_random_draw_exits_two(self, tmp_path, capsys):
        # Commutators scale as norm_bound**2 (about 1e-8 here), below the
        # 1e-6 degeneracy floor on every draw.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"scheme": "alg1", "t": 1.0, "k_list": [1, 2, 3], "norm_bound": 1e-4}))
        assert main(["simulate", "--config", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "degeneracy floor" in err and "norm_bound=0.0001" in err


class TestSweep:
    def test_writes_json_and_csv(self, sweep_config, tmp_path):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "sweep_result.json").read_text())
        assert doc["scheme"] == "trotter"
        assert doc["r2"] >= 0.98
        csv = (out / "points.csv").read_text()
        assert csv.startswith("K,N,error\n")
        assert len(csv.strip().split("\n")) == 4

    def test_byte_identical_reruns(self, sweep_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(sweep_config), "--out", str(out1)])
        main(["sweep", "--config", str(sweep_config), "--out", str(out2)])
        assert (out1 / "sweep_result.json").read_bytes() == (out2 / "sweep_result.json").read_bytes()
        assert (out1 / "points.csv").read_bytes() == (out2 / "points.csv").read_bytes()


class TestBoundCheck:
    def test_clean_campaign(self, capsys):
        assert main(["bound-check", "--instances", "30", "--seed", "3"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["n_violations"] == 0

    def test_violation_exits_one(self, capsys, monkeypatch):
        from splitsim import cli
        from splitsim.harness import CampaignReport

        fake = CampaignReport(
            n_instances=1,
            seed=0,
            violations=({"index": 0},),
            best_observed_over_bound=1.2,
            best_observed_over_mean_dev=0.0,
            best_observed_over_sq_dev=0.0,
            n_controls=0,
        )
        monkeypatch.setattr(cli.harness, "lemma1_campaign", lambda n, s: fake)
        assert main(["bound-check", "--instances", "1", "--seed", "0"]) == EXIT_ASSERTION
        assert "violated" in capsys.readouterr().err

    def test_negative_seed_is_named(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        argv = ["bound-check", "--instances", "5", "--seed", "-1", "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestVerifyLemma2:
    def test_n3(self, capsys):
        assert main(["verify-lemma2", "--n", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        verdict, blob = out.split("\n", 1)
        assert "< 1/3" in verdict
        doc = json.loads(blob)
        assert abs(doc["max_s"] - 8 / 27) <= 1e-4

    def test_maximum_at_one_third_exits_one(self, capsys, monkeypatch):
        # Exit 1 means a failed claim and nothing else: a maximum that reaches
        # 1/3 is reported as a violation, not as invalid input.
        from splitsim import cli
        from splitsim.bounds import Lemma2Result

        fake = Lemma2Result(n=3, max_s=1.0 / 3.0, argmax=(2 / 3, 2 / 3, 2 / 3))
        monkeypatch.setattr(cli.bounds, "lemma2_max", lambda n: fake)
        assert main(["verify-lemma2", "--n", "3"]) == EXIT_ASSERTION
        assert "claim violated" in capsys.readouterr().out

    def test_invalid_n(self, capsys):
        assert main(["verify-lemma2", "--n", "2"]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "65"], "supported maximum of 64"),
            (["--n", "200"], "supported maximum of 64"),
        ],
    )
    def test_oversized_n_exits_two(self, capsys, argv, message):
        # The polish costs about n**3, so n above 64 is rejected before any work.
        start = time.perf_counter()
        assert main(["verify-lemma2", *argv]) == EXIT_INVALID
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_grid_option_is_unrecognised(self, capsys):
        # One search serves every n; there is no grid to choose.
        start = time.perf_counter()
        assert main(["verify-lemma2", "--n", "5", "--grid", "40"]) == EXIT_INVALID
        assert time.perf_counter() - start < 1.0
        assert "unrecognized arguments: --grid 40" in capsys.readouterr().err


class TestExpand:
    def test_obstructed_word(self, tmp_path, capsys):
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[1, 0.5], [2, 1.0], [1, 0.5]]}))
        assert main(["expand", "--word", str(word_path), "--pair", "1,2"]) == EXIT_OK
        out = capsys.readouterr().out
        verdict, blob = out.split("\n", 1)
        assert "obstructed" in verdict
        doc = json.loads(blob)
        assert doc["audit"]["s"] == pytest.approx(0.25)
        assert doc["series"]["m"] == 2

    def test_mistimed_word(self, tmp_path, capsys):
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[1, 0.7], [2, 1.0]]}))
        assert main(["expand", "--word", str(word_path), "--pair", "1,2"]) == EXIT_OK
        assert "mistimed" in capsys.readouterr().out.split("\n")[0]

    @pytest.mark.parametrize(
        "doc",
        [
            [], {"steps": 5}, {"steps": [[1]]}, {"steps": [[1.5, 1.0]]}, {"steps": [[1, None]]},
            {"steps": [[1, float("inf")], [2, 0.5], [1, 0.5]]},  # written as Infinity
            {"steps": [[1, 1e300], [2, 1e300]]},  # the series overflows
            # each duration cubed is finite, but the exact (1, 1, 2) coefficient is not
            {"steps": [[1, 5e102], [1, 5e102], [2, 5e102], [2, 5e102]]},
        ],
    )
    def test_malformed_word_exits_two(self, tmp_path, capsys, doc):
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps(doc))
        out = tmp_path / "expand.json"
        argv = ["expand", "--word", str(word_path), "--pair", "1,2", "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_overflowing_duration_is_named(self, tmp_path, capsys):
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[1, 1e200], [2, 1.0], [1, 1e200]]}))
        assert main(["expand", "--word", str(word_path), "--pair", "1,2"]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: step duration 1e+200 overflows its degree-3 coefficient\n"

    @pytest.mark.parametrize("dt_unit", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_non_positive_dt_unit_exits_two(self, tmp_path, capsys, dt_unit):
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[1, 0.5], [2, 1.0], [1, 0.5]]}))
        out = tmp_path / "expand.json"
        argv = ["expand", "--word", str(word_path), "--pair", "1,2",
                "--dt-unit", dt_unit, "--out", str(out)]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: dt_unit") and dt_unit in err
        assert not out.exists()

    def test_bad_pair_argument(self, tmp_path):
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[1, 1.0], [2, 1.0]]}))
        assert main(["expand", "--word", str(word_path), "--pair", "1;2"]) == EXIT_INVALID

    @pytest.mark.parametrize("u, code", [(32, EXIT_OK), (33, EXIT_INVALID)])
    def test_distinct_term_cap(self, tmp_path, capsys, u, code):
        # The dense series holds about u**3 slots; past the run-config term
        # cap the word is rejected before any is allocated.
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[k, 0.01] for k in range(1, u + 1)]}))
        start = time.perf_counter()
        assert main(["expand", "--word", str(word_path), "--pair", "1,2"]) == code
        err = capsys.readouterr().err
        if code == EXIT_INVALID:
            assert time.perf_counter() - start < 2.0
            assert err.startswith("error:") and "33" in err and "32" in err

    def test_symbol_count_is_not_an_option(self, tmp_path, capsys):
        # The dumped series always covers the word's symbols and the pair.
        word_path = tmp_path / "word.json"
        word_path.write_text(json.dumps({"steps": [[1, 0.5], [2, 1.0], [1, 0.5]]}))
        argv = ["expand", "--word", str(word_path), "--pair", "1,2", "--m", "3"]
        assert main(argv) == EXIT_INVALID
        assert "--m" in capsys.readouterr().err


class TestScaling:
    def test_tiny_scaling_run(self, tmp_path, capsys):
        cfg = {
            "schemes": ["alg2"],
            "t_values": {"alg2": [1.0, 2.0, 4.0]},
            "eps_values": [1e-3],
            "fixed_eps": 1e-3,
        }
        path = tmp_path / "scaling.json"
        path.write_text(json.dumps(cfg))
        assert main(["scaling", "--config", str(path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["per_scheme"]["alg2"]["exponent_t"] - 1.5) <= 0.25


    @pytest.mark.parametrize(
        "override",
        [
            {"panel_size": 0},
            {"n_qubits": 7},
            {"couplings": [1, 1, 1]},
            {"couplings": {"jx": 1, "jz": 1}},
            {"couplings": {"jx": 1, "jz": 1, "hx": "x"}},
            {"schemes": 5},
            {"schemes": ["bogus"]},
            {"fixed_eps": "x"},
            {"fixed_t": 0},
            {"seed": "x"},
            {"seed": -1},
            {"eps_values": 5},
            {"eps_values": [1e-3, -1]},
            {"t_values": [1.0, float("inf")]},
            {"t_values": {"trotter": [1.0]}},
            {"k_cap": 0},
            {"out": 5},
            {"panel_size": 1025},
        ],
    )
    def test_malformed_scaling_config_exits_two(self, tmp_path, capsys, override):
        path = tmp_path / "scaling.json"
        path.write_text(json.dumps({"schemes": ["alg2"], **override}))
        assert main(["scaling", "--config", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"schemes": ["alg2"], "fixed_epsilon": 5}, "fixed_epsilon"),
            (["alg2"], "JSON object"),
            ({"schemes": ["alg2", "bogus"]}, "unknown scheme(s) ['bogus']"),
            (
                {"schemes": ["strang"], "eps_values": [1e-3, 1e-3], "n_qubits": 2},
                "eps_values must not repeat a value",
            ),
            (
                {"schemes": ["strang"], "t_values": [1.0, 1.0, 1.0], "n_qubits": 2},
                "t_values[strang] must not repeat a value",
            ),
            (
                {"schemes": ["strang", "strang"], "n_qubits": 2},
                "schemes must not repeat a name, got ['strang']",
            ),
            (
                {"schemes": ["alg2"], "t_values": {"alg2": [1, 2, 4], "alg_2": "junk"}},
                "unknown t_values key(s) ['alg_2']",
            ),
            # Below eps 1e-8 the panel error's rounding floor would pick K.
            (
                {"schemes": ["strang"], "eps_values": [1e-3, 1e-9]},
                "eps_values has 1e-09, below the eps floor 1e-08",
            ),
            ({"schemes": ["strang"], "fixed_eps": 1e-9}, "fixed_eps has 1e-09, below the eps floor 1e-08"),
            (
                {"schemes": ["strang"], "k_cap": 2**22 + 1},
                "k_cap=4194305 is above the supported maximum 2**22",
            ),
        ],
    )
    def test_rejected_config_exits_two(self, tmp_path, capsys, doc, message):
        path = tmp_path / "scaling.json"
        path.write_text(json.dumps(doc))
        assert main(["scaling", "--config", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_INVALID

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_INVALID

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        # A usage error leaves the shared parser fit for the next call, and
        # the same call gives the same bytes.
        cli._shared_parser.cache_clear()
        outs = [tmp_path / f"lemma2-{i}.json" for i in range(2)]
        assert main(["verify-lemma2", "--n", "x"]) == EXIT_INVALID
        for out in outs:
            assert main(["verify-lemma2", "--n", "3", "--out", str(out)]) == EXIT_OK
        assert main(["frobnicate"]) == EXIT_INVALID
        assert outs[0].read_bytes() == outs[1].read_bytes()
        info = cli._shared_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)
