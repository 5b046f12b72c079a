import csv
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from ordergame.cli import (
    Report,
    RunConfig,
    build_parser,
    check_report,
    emit,
    main,
    run,
)
from ordergame.game import ScenarioResult


def strip_wall_times(payload: dict) -> dict:
    out = json.loads(json.dumps(payload))
    for result in out["results"]:
        result.pop("wall_time_ms")
    return out


class TestRun:
    def test_single_scenario(self):
        report = run(RunConfig(scenario="losr"))
        assert len(report.results) == 1
        assert report.results[0].probability_exact == "5/6"
        assert "losr" in report.wall_time_ms

    def test_results_sorted_by_scenario_name(self):
        report = run(RunConfig(scenario="two-party"))
        assert [r.scenario for r in report.results] == ["two-party"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run(RunConfig(scenario="bogus"))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            RunConfig(tolerance=-1.0)
        with pytest.raises(ValueError):
            RunConfig(max_iters=0)

    @pytest.mark.parametrize("tolerance", ["1e-8", None, True])
    def test_non_real_tolerance_rejected(self, tolerance):
        # "1e-8" and None reached the range test's `<` as a TypeError, and True passed it as 1
        with pytest.raises(ValueError, match="real number"):
            RunConfig(tolerance=tolerance)

    def test_numpy_float_tolerance_accepted(self):
        import numpy as np

        for tolerance in (np.float64(1e-8), np.float32(1e-6)):
            config = RunConfig(tolerance=tolerance)
            assert type(config.tolerance) is float and config.tolerance == tolerance
            # a float32 tolerance raised TypeError in json.dumps
            assert json.loads(json.dumps(config.jsonable()))["tolerance"] == config.tolerance

    @pytest.mark.parametrize("max_iters", [50.5, 50.0, "50"])
    def test_non_integer_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="integer"):
            RunConfig(max_iters=max_iters)

    def test_numpy_integer_max_iters_accepted(self):
        import numpy as np

        config = RunConfig(max_iters=np.int64(50))
        assert type(config.max_iters) is int and config.max_iters == 50
        assert json.loads(json.dumps(config.jsonable()))["max_iters"] == 50

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_non_integer_seed_rejected(self, seed):
        # 1.5 would reach numpy's SeedSequence, and "3" the sign test, as a TypeError
        with pytest.raises(ValueError, match="integer"):
            RunConfig(scenario="quantum-memoryless", seed=seed)

    # True ran seed 1 and False seed 0; True ran max_iters 1
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["seed", "max_iters"])
    def test_bool_integer_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(scenario="quantum-memoryless", **{field: value})

    def test_numpy_integer_seed_accepted(self):
        import numpy as np

        config = RunConfig(scenario="quantum-memoryless", seed=np.int64(7))
        assert type(config.seed) is int and config.seed == 7
        assert json.loads(json.dumps(config.jsonable()))["seed"] == 7

    @pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(True)])
    @pytest.mark.parametrize("field", ["dump_matrices", "check"])
    def test_non_bool_flag_rejected(self, field, value):
        # "no" was once accepted and treated as true
        with pytest.raises(ValueError, match=f"{field} must be a bool"):
            RunConfig(**{field: value})

    def test_unknown_output_rejected(self):
        # emit would otherwise fall through to the text report
        with pytest.raises(ValueError, match="xml"):
            RunConfig(output="xml")


class TestEmit:
    def test_json_round_trip(self):
        report = run(RunConfig(scenario="classical-memoryless", output="json"))
        text = emit(report, "json")
        parsed = json.loads(text)
        assert parsed["results"][0]["scenario"] == "classical-memoryless"
        assert parsed["results"][0]["exact"] == "1/3"
        assert parsed["settings"]["scenario"] == "classical-memoryless"
        # emitting the parsed structure again is stable
        assert json.loads(emit(report, "json")) == parsed

    def test_json_deterministic_apart_from_wall_time(self):
        a = json.loads(emit(run(RunConfig(scenario="losr")), "json"))
        b = json.loads(emit(run(RunConfig(scenario="losr")), "json"))
        assert strip_wall_times(a) == strip_wall_times(b)

    def test_json_writes_fractions_and_refuses_what_it_cannot_write(self):
        def payload(certificate):
            result = ScenarioResult("trit", Fraction(1), "made up", certificate)
            return emit(Report(results=[result], versions="0", settings=RunConfig()), "json")

        assert json.loads(payload({"value": Fraction(1, 3)}))["results"][0]["certificate"] == {"value": "1/3"}
        # a numpy integer is no JSON value, and is not written as the string "3"
        with pytest.raises(TypeError, match="int64"):
            payload({"count": np.int64(3)})

    def test_csv_header_and_rows(self):
        report = run(RunConfig(scenario="trit"))
        text = emit(report, "csv")
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        assert rows[0] == [
            "scenario",
            "probability",
            "exact",
            "residual",
            "iterations",
            "wall_time_ms",
            "failure",
        ]
        assert rows[1][0] == "trit"
        assert rows[1][2] == "1/1"
        assert rows[1][-1] == ""

    def test_csv_names_a_failed_scenario(self, capsys):
        # a tolerance of 100 stops the LP far from its optimum, out of [0, 1]
        assert main(["--scenario", "nonsignaling", "--tolerance", "100", "--output", "csv"]) == 2
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["scenario"] == "nonsignaling"
        assert rows[0]["probability"] == ""
        assert rows[0]["failure"].startswith("probability out of range")

    def test_probability_exact_and_float_consistent(self):
        report = run(RunConfig(scenario="losr"))
        result = report.results[0]
        num, den = map(int, result.probability_exact.split("/"))
        assert abs(result.probability_float - num / den) <= 1e-12

    def test_headline_line(self):
        probabilities = {
            "classical-memoryless": Fraction(1, 3),
            "lose-sdp": 0.999,
            "lose-verify": Fraction(1),
            "losr": Fraction(5, 6),
            "nonsignaling": 0.8333334,
            "quantum-memoryless": 0.3333332,
            "trit": Fraction(1),
            "two-party": Fraction(1),
        }
        results = [ScenarioResult(name, p, "made up") for name, p in probabilities.items()]
        report = Report(results=results, versions="0", settings=RunConfig())
        assert emit(report, "text").splitlines()[-1] == (
            "headline probabilities: classical memoryless 1/3, shared randomness 5/6, "
            "non-signaling 0.833333, quantum memoryless 0.333333, shared entanglement 1/1"
        )

    def test_text_table(self):
        report = run(RunConfig(scenario="two-party"))
        text = emit(report, "text")
        assert text.splitlines()[0].startswith("scenario")
        assert "two-party" in text


class TestCheck:
    def test_check_passes_for_exact_scenario(self):
        report = run(RunConfig(scenario="classical-memoryless", check=True))
        assert check_report(report) == []

    def test_check_flags_mismatch(self):
        report = run(RunConfig(scenario="classical-memoryless"))
        report.results[0].probability = 0.5
        problems = check_report(report)
        assert len(problems) == 1 and "classical-memoryless" in problems[0]


class TestMain:
    def test_exit_zero_and_output(self, capsys):
        assert main(["--scenario", "losr"]) == 0
        out = capsys.readouterr().out
        assert "losr" in out

    def test_check_flag(self, capsys):
        assert main(["--scenario", "trit", "--check"]) == 0
        captured = capsys.readouterr()
        assert "all checks passed" in captured.err

    def test_check_keeps_json_stream_clean(self, capsys):
        assert main(["--scenario", "trit", "--check", "--output", "json"]) == 0
        import json as _json

        parsed = _json.loads(capsys.readouterr().out)
        assert parsed["results"][0]["scenario"] == "trit"

    def test_unknown_scenario_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--scenario", "nope"])
        assert info.value.code != 0

    def test_json_output(self, capsys):
        assert main(["--scenario", "two-party", "--output", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["results"][0]["probability"] == 1.0

    def test_json_solver_fields_count_rejected_extrapolations(self, capsys):
        assert main(["--scenario", "all", "--output", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        solvers = {r["scenario"]: r["certificate"].get("solver") for r in parsed["results"]}
        fields = {"status", "objective_value", "primal_residual", "dual_residual", "iterations", "rejected"}
        for name in ("nonsignaling", "quantum-memoryless", "lose-sdp"):
            solver = solvers.pop(name)
            assert set(solver) == fields
            # none of the three solves drops an extrapolated state
            assert solver["rejected"] == 0
        # the exact scenarios run no solver
        assert set(solvers.values()) == {None}

    def test_dump_matrices(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--scenario", "lose-verify", "--dump-matrices"]) == 0
        matrices = json.loads((tmp_path / "matrices.json").read_text())
        assert matrices["shared_state"]["exact"]
        assert matrices["shared_state"]["data"][0][0] == "1/60"
        assert set(matrices["routing"]) == {p.replace("-", "") for p in
                                            ("ABC", "ACB", "BAC", "BCA", "CAB", "CBA")}
        tableau = (tmp_path / "nonsignaling.tableau").read_text()
        assert tableau.startswith("conic-tableau v1")

    def test_dumped_matrices_are_pinned(self, tmp_path, monkeypatch, capsys):
        # byte identity of the exported exact shared state and routing matrices
        monkeypatch.chdir(tmp_path)
        assert main(["--scenario", "lose-verify", "--dump-matrices"]) == 0
        assert hashlib.sha256((tmp_path / "matrices.json").read_bytes()).hexdigest() == (
            "fa3aeaabf394898993bb5813c6cefee463ab6cb229f0e8ec2affb25fc6fffcfe"
        )

    @pytest.mark.parametrize(
        "blocked, written", [("matrices.json", []), ("nonsignaling.tableau", ["matrices.json"])]
    )
    def test_unwritable_dump_is_a_failure(self, blocked, written, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / blocked).mkdir()
        assert main(["--scenario", "lose-verify", "--dump-matrices"]) == 2
        out = capsys.readouterr().out
        assert "lose-verify" in out
        assert "dump-matrices         FAILED:" in out and blocked in out
        assert main(["--scenario", "lose-verify", "--dump-matrices", "--output", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_written"] == written
        assert blocked in payload["failures"]["dump-matrices"]

    @pytest.mark.parametrize(
        "scenario, digest",
        [
            ("two-party", "da0e41508a1b1062061d12c352613e0ba08220f7caadf008adfc429f4df30918"),
            ("trit", "34f898b3b0a8e879f1c6b3f90d469087eccf278755de7e7899b26f7df8d7a9a8"),
            ("classical-memoryless", "2a716cc93e824c19fc77301c9b89c9e1c5b42929b4d89184c5b463e60b5cdc40"),
            ("losr", "e098df77c9ec27821abcd50cc2df4132453b243c0b73828d9d5ea369eece57c4"),
            ("lose-verify", "f526b895b50780af14d7856309e0f7f135fba95c987235fe073c7e20f15f0ec5"),
        ],
    )
    def test_exact_json_report_is_pinned(self, scenario, digest, capsys):
        # exact scenarios report rationals only, so the bytes hold on any platform
        assert main(["--scenario", scenario, "--output", "json"]) == 0
        payload = strip_wall_times(json.loads(capsys.readouterr().out))
        assert hashlib.sha256(json.dumps(payload, indent=2, sort_keys=True).encode()).hexdigest() == digest

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        import ordergame.cli as cli
        from ordergame.solver import SolveReport, SolverFailed

        def boom(settings):
            report = SolveReport("max_iters", 0.0, 1.0, 1.0, 1, None)
            raise SolverFailed("did not converge", report)

        monkeypatch.setattr(cli, "solve_nonsignaling", boom)
        assert main(["--scenario", "nonsignaling"]) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_unconverged_solve_exit_code(self, capsys):
        # the discrimination solve converges at iteration 4
        assert main(["--scenario", "quantum-memoryless", "--max-iters", "3"]) == 2
        assert "quantum-memoryless    FAILED" in capsys.readouterr().out

    def test_halved_tolerance_that_underflows_exits_2(self, capsys):
        # the shared-state solve runs at half the tolerance, here 0.0; the
        # refusal names the tolerance given, not its half
        assert main(["--scenario", "lose-sdp", "--tolerance", "5e-324"]) == 2
        assert (
            "lose-sdp              FAILED: tolerance 5e-324 is too small: "
            "the shared-state solve runs to half of it, which is 0.0"
        ) in capsys.readouterr().out

    def test_sampled_check_ignores_solver_flags(self, capsys):
        checks = []
        for flags in ([], ["--max-iters", "100"], ["--tolerance", "1e-4"]):
            assert main(["--scenario", "quantum-memoryless", "--output", "json", *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            checks.append(payload["results"][0]["certificate"]["sampled_check"])
        assert checks[0] == checks[1] == checks[2]
        assert checks[0]["certificate"] == "closed-form"
        assert max(checks[0]["max_primal_residual"], checks[0]["max_dual_violation"], checks[0]["max_gap"]) <= 1e-12

    def test_tolerance_does_not_loosen_check(self, capsys):
        assert main(["--scenario", "nonsignaling", "--tolerance", "0.5", "--check"]) == 1
        assert "check failed: nonsignaling" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["100", "1e300"])
    def test_scenario_error_exit_code(self, tolerance, capsys):
        # a loose tolerance stops the LP above 1, and the out-of-range
        # probability is recorded as a failure, not raised
        assert main(["--scenario", "nonsignaling", "--tolerance", tolerance]) == 2
        assert "nonsignaling          FAILED: probability out of range" in capsys.readouterr().out

    def test_tolerance_does_not_loosen_lose_sdp_orthogonality(self, capsys, monkeypatch):
        import numpy as np

        import ordergame.cli as cli
        from ordergame.quantum import perfect_discrimination_state
        from ordergame.solver import SolveReport
        from ordergame.tensor import ENTANGLED_LAYOUT, LabeledOperator

        # mixing in 4e-3 of the maximally mixed state (pair traces 1/4)
        # leaves a unit-trace PSD state whose routed outputs overlap by 1e-3
        closed_form = np.asarray(perfect_discrimination_state().to_float().data)
        state = LabeledOperator(ENTANGLED_LAYOUT, (1 - 4e-3) * closed_form + 4e-3 * np.eye(16) / 16)

        def overlapping(pair_ops, settings):
            return state, SolveReport("optimal", 1.0, 0.0, 0.0, 1, np.zeros(257))

        monkeypatch.setattr(cli, "solve_shared_state_feasibility", overlapping)
        assert main(["--scenario", "lose-sdp", "--tolerance", "0.5", "--check"]) != 0
        assert "lose-sdp              FAILED: outputs for pair" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--tolerance", "0"],
            ["--tolerance", "-1"],
            ["--max-iters", "0"],
            ["--seed", "-1", "--scenario", "quantum-memoryless"],
            ["--tolerance", "inf", "--scenario", "nonsignaling"],
            ["--tolerance", "nan"],
        ],
    )
    def test_bad_flag_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scenario == "all"
        assert args.tolerance == 1e-8
        assert args.max_iters == 200_000
        assert args.seed == 42
        assert args.output == "text"
