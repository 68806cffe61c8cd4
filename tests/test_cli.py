import json

import pytest

import nexfuz.solver
from nexfuz.cli import main
from nexfuz.lp import LpError
from nexfuz.models import FiniteModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_sat_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--logic", "alc", "--formula", "dia a & ~(dia a)",
            "--cmp", "ge", "--p", "1/2",
        )
        assert code == 0 and out.strip() == "SAT"

    def test_unsat_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--logic", "lgen", "--formula", "0", "--cmp", "gt", "--p", "0"
        )
        assert code == 1 and out.strip() == "UNSAT"

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--logic", "alc", "--formula", "a", "--cmp", "ge",
            "--p", "1/2", "--json",
        )
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "SAT"
        assert payload["witness"]["kind"] == "fuzzyrel"

    def test_witness_file_revalidates(self, capsys, tmp_path):
        out_path = tmp_path / "witness.json"
        code, _, _ = run(
            capsys, "solve", "--logic", "mp", "--formula", "M{1/4} a", "--cmp", "ge",
            "--p", "1/2", "--witness", str(out_path),
        )
        assert code == 0
        model = FiniteModel.load(str(out_path))
        model.validate()
        code2, out2, _ = run(
            capsys, "eval", "--model", str(out_path), "--state", model.root,
            "--formula", "M{1/4} a",
        )
        assert code2 == 0
        from nexfuz.numerics import parse_rational

        assert parse_rational(out2.strip()) >= parse_rational("1/2")

    def test_metric_requires_space(self, capsys):
        code, _, err = run(
            capsys, "solve", "--logic", "metric-fuzzy", "--formula", "dia{l,1} a"
        )
        assert code == 2 and "metric-space" in err

    def test_metric_with_space(self, capsys, tmp_path):
        space_path = tmp_path / "space.json"
        space_path.write_text(
            json.dumps({"labels": ["l", "m"], "dist": [["0", "3/10"], ["3/10", "0"]]})
        )
        code, out, _ = run(
            capsys, "solve", "--logic", "metric-fuzzy", "--metric-space", str(space_path),
            "--formula", "dia{l,1} a", "--cmp", "ge", "--p", "7/10",
        )
        assert code == 0 and out.strip() == "SAT"

    def test_negative_max_literals_is_a_usage_error(self, capsys):
        for value in ("-1", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--logic", "alc", "--formula", "a", "--max-literals", value])
            assert exc.value.code == 2
            assert "--max-literals" in capsys.readouterr().err
        code, out, _ = run(
            capsys, "solve", "--logic", "alc", "--formula", "a", "--max-literals", "0"
        )
        assert code == 0 and out.strip() == "SAT"

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "solve", "--logic", "alc", "--formula", "a &")
        assert code == 2 and "error" in err

    def test_sequent_file(self, capsys, tmp_path):
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(
            json.dumps(
                {"literals": [{"formula": "dia a & ~(dia a)", "interval": "[1/2,1]"}]}
            )
        )
        code, out, _ = run(
            capsys, "solve", "--logic", "alc", "--sequent", str(seq_path)
        )
        assert code == 0 and out.strip() == "SAT"

    def test_trace_emits_rule_records(self, capsys):
        code, _, err = run(
            capsys, "solve", "--logic", "alc", "--formula", "~a", "--cmp", "ge",
            "--p", "1/2", "--trace",
        )
        assert code == 0
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert any(r["rule"] == "Neg" for r in records)

    def test_trace_covers_every_layer(self, capsys):
        # The top layer holds only `dia ~a`; the Neg step is in the child's.
        code, _, err = run(
            capsys, "solve", "--logic", "alc", "--formula", "dia ~a", "--cmp", "ge",
            "--p", "1/2", "--trace",
        )
        assert code == 0
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert [r["rule"] for r in records] == ["Neg"]
        assert records[0]["premise"]["literals"][0]["formula"] == "~a"


    def test_trace_shows_the_input_modal_formulas(self, capsys):
        code, _, err = run(
            capsys, "solve", "--logic", "alc", "--formula", "dia a & ~dia b",
            "--cmp", "ge", "--p", "1/2", "--trace",
        )
        assert code == 0
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert [r["rule"] for r in records] == ["Min", "Neg"]
        assert [lit["formula"] for lit in records[1]["conclusions"][0]["literals"]] == [
            "dia a", "dia b"
        ]
        assert "v1" not in err

class TestErrorContract:
    """A failure inside the solver exits 2 with an `error:` line; exit 1
    means UNSAT only."""

    @staticmethod
    def solve_raising(capsys, monkeypatch, exc):
        def failing_sat(*args, **kwargs):
            raise exc

        monkeypatch.setattr(nexfuz.solver, "sat", failing_sat)
        return run(capsys, "solve", "--logic", "alc", "--formula", "dia a")

    def test_recursion_error_exit_two(self, capsys, monkeypatch):
        code, out, err = self.solve_raising(capsys, monkeypatch, RecursionError("too deep"))
        assert code == 2 and out == "" and err.startswith("error:") and "too deep" in err

    def test_lp_error_exit_two(self, capsys, monkeypatch):
        code, out, err = self.solve_raising(capsys, monkeypatch, LpError("singular basis"))
        assert code == 2 and out == "" and err.startswith("error:") and "singular basis" in err

    def test_witness_verification_failure_exit_two(self, capsys, monkeypatch):
        exc = AssertionError("witness model fails to satisfy the input sequent")
        code, out, err = self.solve_raising(capsys, monkeypatch, exc)
        assert code == 2 and out == "" and err.startswith("error:") and "witness" in err

    @staticmethod
    def solve_sequent_file(capsys, tmp_path, literals):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"literals": literals}))
        return run(capsys, "solve", "--logic", "alc", "--sequent", str(path))

    def test_bound_outside_unit_interval_exit_two(self, capsys, tmp_path):
        for cmp, p in (("ge", "3/2"), ("le", "3/2"), ("ge", "-1/2"), ("le", "-1/2")):
            code, out, err = run(capsys, "solve", "--logic", "alc", "--formula", "a",
                                 "--cmp", cmp, f"--p={p}")
            assert code == 2 and out == "" and "outside [0, 1]" in err, (cmp, p)
        for interval in ("[3/2,1/2]", "[1/2,-1/2]"):
            code, out, err = self.solve_sequent_file(
                capsys, tmp_path, [{"formula": "a", "interval": interval}]
            )
            assert code == 2 and out == "" and "outside [0, 1]" in err, interval

    def test_sequent_entry_without_interval_exit_two(self, capsys, tmp_path):
        code, out, err = self.solve_sequent_file(capsys, tmp_path, [{"formula": "dia a"}])
        assert code == 2 and out == "" and err.startswith("error:") and "interval" in err

    def test_sequent_entry_string_exit_two(self, capsys, tmp_path):
        code, out, err = self.solve_sequent_file(capsys, tmp_path, ["dia a"])
        assert code == 2 and out == "" and err.startswith("error:") and "interval" in err

    def test_sequent_literals_not_a_list_exit_two(self, capsys, tmp_path):
        code, out, err = self.solve_sequent_file(capsys, tmp_path, 5)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "internal" not in err and "literals" in err

    def test_sequent_formula_not_a_string_exit_two(self, capsys, tmp_path):
        literals = [{"formula": 5, "interval": "[0,1]"}]
        code, out, err = self.solve_sequent_file(capsys, tmp_path, literals)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "internal" not in err and "strings" in err

    def test_sequent_interval_not_a_string_exit_two(self, capsys, tmp_path):
        literals = [{"formula": "dia a", "interval": 1}]
        code, out, err = self.solve_sequent_file(capsys, tmp_path, literals)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "internal" not in err and "strings" in err

    def test_exponent_interval_exit_two(self, capsys, tmp_path):
        literals = [{"formula": "dia a", "interval": "[1e-10000000,1]"}]
        code, out, err = self.solve_sequent_file(capsys, tmp_path, literals)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "internal" not in err and "1e-10000000" in err

    def test_exponent_metric_distance_exit_two(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": [["0", "1e-9"], ["1e-9", "0"]]}))
        code, out, err = run(
            capsys, "solve", "--logic", "metric-fuzzy", "--metric-space", str(path),
            "--formula", "dia{a,1} x",
        )
        assert code == 2 and out == "" and err.startswith("error:") and "1e-9" in err

    def test_model_states_not_a_list_exit_two(self, capsys, tmp_path):
        model = {"kind": "prob", "states": "xy",
                 "trans": {"x": {"y": "1"}, "y": {"y": "1"}}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and out == "" and err.startswith("error:") and "states" in err

    def test_model_root_not_a_string_exit_two(self, capsys, tmp_path):
        model = {"kind": "fuzzyrel", "states": ["x"], "trans": {"x": {"x": "1"}},
                 "root": ["x"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and out == "" and err.startswith("error:") and "root" in err
        assert "internal" not in err

    def test_metric_labels_not_a_list_exit_two(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"labels": "ab", "dist": [["0", "1"], ["1", "0"]]}))
        code, out, err = run(
            capsys, "solve", "--logic", "metric-fuzzy", "--metric-space", str(path),
            "--formula", "dia{a,1} x",
        )
        assert code == 2 and out == "" and err.startswith("error:") and "labels" in err

    def test_metric_dist_rows_not_lists_exit_two(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"labels": ["a", "b"], "dist": ["01", "10"]}))
        code, out, err = run(
            capsys, "solve", "--logic", "metric-fuzzy", "--metric-space", str(path),
            "--formula", "dia{a,1} x",
        )
        assert code == 2 and out == "" and err.startswith("error:") and "dist" in err

    def test_metric_edge_without_label_exit_two(self, capsys, tmp_path):
        model = {
            "kind": "metric",
            "states": ["x"],
            "trans": {"x": [{"to": "x", "deg": "1"}]},
            "metric": {"labels": ["e"], "dist": [["0"]]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and out == "" and err.startswith("error:") and "label" in err

    def test_duplicate_metric_edge_exit_two(self, capsys, tmp_path):
        model = {
            "kind": "metric",
            "states": ["x"],
            "trans": {"x": [{"label": "e", "to": "x", "deg": "1/2"},
                            {"label": "e", "to": "x", "deg": "1"}]},
            "metric": {"labels": ["e"], "dist": [["0"]]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and out == "" and err.startswith("error:")
        assert "'x'" in err and "'e'" in err and "internal" not in err

    @pytest.mark.parametrize("command", ["validate", "eval"])
    @pytest.mark.parametrize("text, key", [
        ('{"kind":"fuzzyrel","states":["x","y"],'
         '"trans":{"x":{"y":"1/2","y":"1"}},"atoms":{"y":{"a":"1"}}}', "y"),
        ('{"kind":"fuzzyrel","states":["x","y"],'
         '"trans":{"x":{"y":"1/2"}},"atoms":{"y":{"a":"1","a":"0"}}}', "a"),
        ('{"kind":"prob","states":["x"],"states":["x","y"],'
         '"trans":{"x":{"x":"1"}}}', "states"),
    ], ids=["transition-row", "atom-row", "top-level"])
    def test_model_repeated_key_exit_two(self, capsys, tmp_path, command, text, key):
        # json.load keeps the last of two equal keys; a model file must not
        # mean something other than it says.
        path = tmp_path / "m.json"
        path.write_text(text)
        argv = [command, "--model", str(path)]
        if command == "eval":
            argv += ["--state", "x", "--formula", "dia a"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert repr(key) in err and "internal" not in err

    def test_metric_space_repeated_key_exit_two(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text('{"labels": ["e", "f"], "dist": [["0"]], "labels": ["e"]}')
        code, out, err = run(capsys, "solve", "--logic", "metric-fuzzy", "--formula",
                             "dia{e,0} a", "--metric-space", str(path))
        assert code == 2 and out == "" and err.startswith("error:")
        assert "'labels'" in err and "internal" not in err

    def test_sequent_repeated_key_exit_two(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"literals": [{"formula": "a", "interval": "[0,0]",'
                        ' "interval": "[1,1]"}]}')
        code, out, err = run(capsys, "solve", "--logic", "alc", "--sequent", str(path))
        assert code == 2 and out == "" and err.startswith("error:")
        assert "'interval'" in err and "internal" not in err

    @pytest.mark.parametrize("command", ["validate", "eval"])
    @pytest.mark.parametrize("bad", [["1/2"], {"n": "1/2"}])
    def test_model_degree_not_a_string_exit_two(self, capsys, tmp_path, command, bad):
        fuzzy = {"kind": "fuzzyrel", "states": ["x"], "trans": {"x": {"x": "1/2"}},
                 "atoms": {"x": {"a": "1"}}}
        metric = {"kind": "metric", "states": ["x"],
                  "trans": {"x": [{"label": "l", "to": "x", "deg": "1/2"}]},
                  "atoms": {"x": {"a": "1"}}, "metric": {"labels": ["l"], "dist": [["0"]]}}
        path = tmp_path / "m.json"
        argv = [command, "--model", str(path)]
        if command == "eval":
            argv += ["--state", "x", "--formula", "a"]
        for model, named in [
            ({**fuzzy, "trans": {"x": {"x": bad}}}, True),
            ({**fuzzy, "atoms": {"x": {"a": bad}}}, True),
            ({**metric, "trans": {"x": [{"label": "l", "to": "x", "deg": bad}]}}, True),
            ({**metric, "metric": {"labels": ["l"], "dist": [[bad]]}}, False),
        ]:
            path.write_text(json.dumps(model))
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("error:")
            assert "internal" not in err
            if named:
                assert "state 'x'" in err and repr(bad) in err
            else:
                assert "dist" in err


class TestEvalAndValidate:
    def test_eval_model(self, capsys, tmp_path):
        model = {
            "kind": "prob",
            "states": ["x", "y", "z"],
            "trans": {
                "x": {"y": "1/2", "z": "1/2"},
                "y": {"y": "1"},
                "z": {"z": "1"},
            },
            "atoms": {"x": {"a": "0"}, "y": {"a": "4/5"}, "z": {"a": "2/5"}},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model))
        code, out, _ = run(
            capsys, "eval", "--model", str(path), "--state", "x", "--formula", "G a"
        )
        assert code == 0 and out.strip() == "1/2"
        code, out, _ = run(
            capsys, "eval", "--model", str(path), "--state", "x",
            "--formula", "M{3/10} a",
        )
        assert code == 0 and out.strip() == "4/5"

    def test_validate_ok(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {"kind": "fuzzyrel", "states": ["x"], "trans": {"x": {"x": "1/2"}},
                 "atoms": {"x": {"a": "1"}}}
            )
        )
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 0 and out.strip() == "OK"

    def test_validate_bad_distribution(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {"kind": "prob", "states": ["x"], "trans": {"x": {"x": "1/2"}},
                 "atoms": {}}
            )
        )
        code, _, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and "error" in err

    def test_unknown_reach_label_exit_two(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {"kind": "metric", "states": ["x", "y"],
                 "trans": {"x": [{"label": "l", "to": "y", "deg": "1"}], "y": []},
                 "atoms": {"x": {"a": "0"}, "y": {"a": "1"}},
                 "metric": {"labels": ["l"], "dist": [["0"]]}}
            )
        )
        for state in ("x", "y"):
            code, out, err = run(
                capsys, "eval", "--model", str(path), "--state", state,
                "--formula", "dia{zz, 1/2} a",
            )
            assert code == 2 and out == "" and "unknown label" in err

    def test_unknown_state(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"kind": "fuzzyrel", "states": ["x"], "trans": {}, "atoms": {}})
        )
        code, _, err = run(
            capsys, "eval", "--model", str(path), "--state", "nope", "--formula", "0"
        )
        assert code == 2
        assert err.startswith("error: ") and "'nope'" in err and "internal" not in err
