import json
from math import comb

import pytest
from click.testing import CliRunner

from k2tlab import ramsey
from k2tlab.cli import load_graph, main
from k2tlab.constructions import complete, cycle, empty
from k2tlab.graphs import build, graph6_decode, graph6_encode


@pytest.fixture
def runner():
    return CliRunner()


def write_graph6(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(graph6_encode(g) + "\n")
    return str(p)


def report_of(result):
    return json.loads(result.output)


class TestLoadGraph:
    def test_graph6(self, tmp_path):
        p = write_graph6(tmp_path, "c4.g6", cycle(4))
        assert load_graph(p) == cycle(4)

    def test_edge_text(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
        assert load_graph(str(p)) == cycle(4)

    def test_oversized_edge_text_exits_two(self, runner, tmp_path):
        from k2tlab.graphs import MAX_EDGE_TEXT_VERTICES

        p = tmp_path / "huge.txt"
        p.write_text(f"{MAX_EDGE_TEXT_VERTICES + 1}\n0 1\n")
        result = runner.invoke(
            main, ["detect", "--graph", str(p), "--format", "edges"]
        )
        assert result.exit_code == 2
        assert "cap" in result.output

    def test_vertex_count_alone_is_edge_text(self, tmp_path):
        # Digits (48..57) are never graph6 bytes (63..126).
        p = tmp_path / "five.txt"
        p.write_text("5\n")
        assert load_graph(str(p)) == empty(5)

    @pytest.mark.parametrize("sep", [" ", "\t"], ids=["space", "tab"])
    def test_one_edge_line_with_any_whitespace(self, runner, tmp_path, sep):
        # parse_edge_text splits a line on any whitespace, and graph6 bytes
        # (63..126) hold none, so a one-line file with a tab is edge text.
        p = tmp_path / "edge.txt"
        p.write_text(f"0{sep}2\n")
        assert load_graph(str(p)) == build(3, [(0, 2)])
        result = runner.invoke(main, ["detect", "--graph", str(p), "--t", "2"])
        assert result.exit_code == 0, result.output
        rep = report_of(result)
        assert (rep["inputs"]["graph"], rep["results"]["found"]) == ("BO", False)
        k3 = write_graph6(tmp_path, "k3.g6", complete(3))
        result = runner.invoke(main, ["witness", "--graph", str(p), "--h", k3, "--t", "2"])
        assert result.exit_code == 0, result.output
        r = report_of(result)["results"]
        assert (r["outcome"], r["verified"], r["selected_edge"]) == (
            "hypothesis-not-met",
            True,
            [0, 1],
        )

    def test_explicit_format(self, tmp_path):
        p = write_graph6(tmp_path, "k3.g6", complete(3))
        assert load_graph(p, "graph6") == complete(3)


class TestDetectCommand:
    def test_found_exits_one(self, runner, tmp_path):
        p = write_graph6(tmp_path, "c4.g6", cycle(4))
        result = runner.invoke(main, ["detect", "--graph", p, "--t", "2"])
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["results"]["found"]
        assert rep["results"]["certificate"]["t_side"] == [1, 3]
        assert rep["schema_version"] == 3

    def test_none_exits_zero(self, runner, tmp_path):
        p = write_graph6(tmp_path, "k5.g6", complete(5))
        result = runner.invoke(main, ["detect", "--graph", p, "--t", "2"])
        assert result.exit_code == 0
        assert not report_of(result)["results"]["found"]

    def test_petersen_is_clean(self, runner, tmp_path):
        from conftest import petersen

        p = write_graph6(tmp_path, "petersen.g6", petersen())
        result = runner.invoke(main, ["detect", "--graph", p, "--t", "2"])
        assert result.exit_code == 0
        assert not report_of(result)["results"]["found"]

    def test_bad_t_exits_two(self, runner, tmp_path):
        p = write_graph6(tmp_path, "k5.g6", complete(5))
        result = runner.invoke(main, ["detect", "--graph", p, "--t", "1"])
        assert result.exit_code != 0
        assert result.exit_code != 1

    def test_determinism_modulo_runtime(self, runner, tmp_path):
        p = write_graph6(tmp_path, "c4.g6", cycle(4))
        reports = []
        for _ in range(2):
            result = runner.invoke(main, ["detect", "--graph", p, "--t", "2"])
            rep = report_of(result)
            rep.pop("runtime_ms")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("n", [2896, 2897])
    def test_echo_is_edge_text_past_the_pair_cap(self, runner, tmp_path, n):
        # graph6 takes a bit per vertex pair, so past MAX_VERTEX_PAIRS the
        # report echoes the host as edge text, which loads back.
        from k2tlab.graphs import MAX_VERTEX_PAIRS, build

        p = tmp_path / "sparse.txt"
        p.write_text(f"{n}\n0 1\n2 3\n")
        result = runner.invoke(main, ["detect", "--graph", str(p)])
        assert result.exit_code == 0
        echo = report_of(result)["inputs"]["graph"]
        if comb(n, 2) <= MAX_VERTEX_PAIRS:
            assert echo == graph6_encode(build(n, [(0, 1), (2, 3)]))
        else:
            assert echo == f"{n}\n0 1\n2 3"
        (tmp_path / "echo.txt").write_text(echo)
        assert load_graph(str(tmp_path / "echo.txt")) == load_graph(str(p))


class TestBoundsCommand:
    def test_holmsen_row_present(self, runner):
        result = runner.invoke(
            main, ["bounds", "--n", "100", "--alpha", "0.5", "--t", "2"]
        )
        assert result.exit_code == 0
        rows = {r["formula_id"]: r for r in report_of(result)["results"]["rows"]}
        assert abs(rows["holmsen"]["value"] - 8.57864) < 1e-4
        assert rows["ramsey-threshold"]["integer_guarantee"] == 9

    def test_boundary_flagged(self, runner):
        result = runner.invoke(
            main, ["bounds", "--n", "50", "--alpha", "1.0", "--t", "2"]
        )
        rows = {r["formula_id"]: r for r in report_of(result)["results"]["rows"]}
        entry = rows["ramsey-threshold"]
        assert not entry["applicable"]
        assert "boundary" in entry["threshold_note"]

    def test_k23_spec_value(self, runner):
        result = runner.invoke(
            main, ["bounds", "--n", "10000", "--alpha", "0.9", "--t", "3"]
        )
        rows = {r["formula_id"]: r for r in report_of(result)["results"]["rows"]}
        assert rows["k23-sqrt-alpha"]["integer_guarantee"] == 60

    def test_csv_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "bounds", "--n", "50,100", "--alpha", "0.3,0.6",
                "--t", "2,3", "--csv", str(out), "--json", str(tmp_path / "r.json"),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("n,alpha,t,formula_id")
        assert len(lines) > 8

    def test_fraction_alpha(self, runner):
        result = runner.invoke(
            main, ["bounds", "--n", "7", "--alpha", "9/21", "--t", "2"]
        )
        assert result.exit_code == 0


class TestWitnessCommand:
    def test_embedding_exits_one(self, runner, tmp_path):
        from k2tlab.graphs import build

        host = build(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                         if (u, v) != (0, 1)])
        hp = write_graph6(tmp_path, "host.g6", host)
        k4 = write_graph6(tmp_path, "k4.g6", complete(4))
        result = runner.invoke(
            main, ["witness", "--graph", hp, "--h", k4, "--t", "2"]
        )
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["results"]["outcome"] == "h-embedded"
        assert rep["results"]["verified"]

    def test_hypothesis_not_met_exits_zero(self, runner, tmp_path):
        c5 = write_graph6(tmp_path, "c5.g6", cycle(5))
        k3 = write_graph6(tmp_path, "k3.g6", complete(3))
        result = runner.invoke(
            main, ["witness", "--graph", c5, "--h", k3, "--t", "2"]
        )
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["results"]["outcome"] == "hypothesis-not-met"
        assert rep["results"]["slack"]["ramsey_threshold"] == 2

    def test_induced_k2t_found(self, runner, tmp_path):
        c4 = write_graph6(tmp_path, "c4.g6", cycle(4))
        k3 = write_graph6(tmp_path, "k3.g6", complete(3))
        result = runner.invoke(
            main, ["witness", "--graph", c4, "--h", k3, "--t", "2"]
        )
        assert result.exit_code == 1
        assert report_of(result)["results"]["outcome"] == "induced-k2t-found"

    def test_edgeless_edge_text_host(self, runner, tmp_path):
        five = tmp_path / "five.txt"
        five.write_text("5\n")
        k4 = write_graph6(tmp_path, "k4.g6", complete(4))
        result = runner.invoke(
            main, ["witness", "--graph", str(five), "--h", k4, "--t", "2"]
        )
        assert result.exit_code == 0, result.output
        r = report_of(result)["results"]
        assert (r["outcome"], r["verified"], r["selected_edge"]) == (
            "hypothesis-not-met",
            True,
            [0, 1],
        )

    def test_complete_host_is_boundary_degenerate(self, runner, tmp_path):
        k6 = write_graph6(tmp_path, "k6.g6", complete(6))
        k3 = write_graph6(tmp_path, "k3.g6", complete(3))
        result = runner.invoke(
            main, ["witness", "--graph", k6, "--h", k3, "--t", "2"]
        )
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["results"]["outcome"] == "boundary-degenerate"
        assert rep["results"]["verified"]


class TestVerifyCommand:
    def test_beta_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "beta"])
        assert result.exit_code == 0

    def test_clique_suite_small(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["verify", "--suite", "clique-exhaustive", "--nmax", "4",
             "--json", str(out)],
        )
        assert result.exit_code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["passed"]
        assert rep["violations"] == []

    def test_shard_flag(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--suite", "clique-exhaustive", "--nmax", "4",
             "--shard", "1/2"],
        )
        assert result.exit_code == 0

    def test_clean_reports_identical_modulo_runtime(self, runner, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["verify", "--suite", "proof-ineq", "--nmax", "4",
                 "--json", str(out)],
            )
            assert result.exit_code == 0
            rep = json.loads(out.read_text())
            rep.pop("runtime_ms")
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[0] == reports[1]

    def test_turan_upper_report_has_no_sweep(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["verify", "--suite", "turan-upper", "--nmax", "4",
             "--json", str(out)],
        )
        assert result.exit_code == 0
        rep = json.loads(out.read_text())
        assert set(rep["inputs"]) == {"n_max", "shard", "suite", "t_values", "workers"}
        assert set(rep["results"]["details"]) == {"skipped_no_exact_ramsey"}

    @pytest.mark.parametrize(
        "guard", ["find_independent_set", "contains_family_member"]
    )
    def test_ramsey_small_bad_witness_exits_two(self, runner, monkeypatch, guard):
        from k2tlab import ramsey

        monkeypatch.setattr(ramsey, guard, lambda *args: (0,))
        result = runner.invoke(main, ["verify", "--suite", "ramsey-small"])
        assert result.exit_code == 2
        assert "Ramsey witness" in result.output

    def test_workers_flag(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--suite", "clique-exhaustive", "--nmax", "5",
             "--workers", "2"],
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, runner, workers):
        result = runner.invoke(
            main,
            ["verify", "--suite", "clique-exhaustive", "--nmax", "3",
             "--workers", workers],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("threads", ["-3", "0", "abc"])
    def test_bad_threads_env_exits_two(self, runner, monkeypatch, threads):
        monkeypatch.setenv("K2TLAB_THREADS", threads)
        result = runner.invoke(
            main, ["verify", "--suite", "clique-exhaustive", "--nmax", "3"]
        )
        assert result.exit_code == 2
        assert "K2TLAB_THREADS" in result.output

    def test_threads_env_sets_default_workers(self, monkeypatch):
        from k2tlab.suites import default_workers

        monkeypatch.setenv("K2TLAB_THREADS", "3")
        assert default_workers() == 3
        monkeypatch.delenv("K2TLAB_THREADS")
        assert default_workers() == 1

    def test_bad_shard(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--suite", "clique-exhaustive", "--shard", "nope"],
        )
        assert result.exit_code == 2

    def test_unknown_suite(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "mystery"])
        assert result.exit_code == 2


class TestGenerateCommand:
    def test_polarity_spec_example(self, runner):
        result = runner.invoke(main, ["generate", "polarity", "5"])
        assert result.exit_code == 0
        g = graph6_decode(result.output.strip())
        assert g.n == 31 and g.edge_count == 90

    def test_gnp_seed_documented(self, runner, tmp_path):
        out = tmp_path / "rep.json"
        result = runner.invoke(
            main,
            ["generate", "gnp", "12", "0.5", "--seed", "7", "--json", str(out)],
        )
        assert result.exit_code == 0
        rep = json.loads(out.read_text())
        assert rep["inputs"]["seed"] == 7
        assert rep["inputs"]["prng"] == "xorshift64star-v1"

    def test_turan(self, runner):
        result = runner.invoke(main, ["generate", "turan", "6", "3"])
        assert graph6_decode(result.output.strip()).edge_count == 12

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "g.g6"
        result = runner.invoke(
            main, ["generate", "complete", "4", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert graph6_decode(out.read_text().strip()) == complete(4)

    def test_bad_kind(self, runner):
        result = runner.invoke(main, ["generate", "blob", "4"])
        assert result.exit_code == 2

    def test_violation_payload_recheckable(self, runner, tmp_path):
        # Any graph6 payload a report carries must feed back through detect.
        p = write_graph6(tmp_path, "c4.g6", cycle(4))
        result = runner.invoke(main, ["detect", "--graph", p])
        rep = report_of(result)
        assert graph6_decode(rep["inputs"]["graph"]) == cycle(4)


class TestRamseyCommand:
    def test_r33_spec_example(self, runner):
        result = runner.invoke(
            main, ["ramsey", "--t", "3", "--r", "3", "--cap", "7"]
        )
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["results"]["exact"] == 6
        witness = graph6_decode(rep["results"]["witness"])
        assert witness.n == 5 and witness.edge_count == 5

    def test_cap_defaults_to_the_library_cap(self, runner):
        result = runner.invoke(main, ["ramsey", "--t", "2", "--r", "3"])
        assert result.exit_code == 0
        assert report_of(result)["inputs"]["cap"] == ramsey.DEFAULT_RAMSEY_CAP

    def test_family_from_h_file(self, runner, tmp_path):
        k4 = write_graph6(tmp_path, "k4.g6", complete(4))
        result = runner.invoke(main, ["ramsey", "--t", "2", "--h", k4])
        rep = report_of(result)
        assert rep["results"]["exact"] == 3  # R(K_2, {K3}) = 3
        assert rep["results"]["family"] == [graph6_encode(complete(3))]

    def test_requires_exactly_one_target(self, runner, tmp_path):
        result = runner.invoke(main, ["ramsey", "--t", "2"])
        assert result.exit_code == 2
        k4 = write_graph6(tmp_path, "k4.g6", complete(4))
        result = runner.invoke(
            main, ["ramsey", "--t", "2", "--r", "3", "--h", k4]
        )
        assert result.exit_code == 2


class TestInputErrorsExitTwo:
    """Bad input of every kind ends in exit 2 and a one-line message,
    never a traceback (exit 1 is reserved for findings)."""

    @pytest.mark.parametrize(
        "args",
        [
            ["detect", "--graph", "{dir}"],
            ["witness", "--graph", "{c4}", "--h", "{dir}"],
            ["ramsey", "--t", "2", "--h", "{dir}"],
            ["bounds", "--n", "10", "--alpha", "1/0"],
            ["bounds", "--n", str(10**400), "--alpha", "0.5"],
            ["verify", "--suite", "clique-exhaustive", "--nmax", "8"],
            ["verify", "--suite", "proof-ineq", "--nmax", "8"],
            ["verify", "--suite", "turan-upper", "--nmax", "8"],
            ["generate", "complete", "100000"],
            ["ramsey", "--t", "3", "--r", "100000"],
            ["ramsey", "--t", "3", "--r", "11"],
            ["ramsey", "--t", "3", "--h", "{k12}"],
            ["verify", "--suite", "polarity", "--shard", "5/2"],
            ["verify", "--suite", "triangle-thm", "--nmax", "4", "--shard", "1/2"],
            ["verify", "--suite", "beta", "--nmax", "3", "--t", "9", "--workers", "4"],
            ["verify", "--suite", "ramsey-small", "--t", "3"],
            ["verify", "--suite", "triangle-thm", "--nmax", "0"],
            ["verify", "--suite", "triangle-thm", "--t", "0"],
            ["verify", "--suite", "clique-exhaustive", "--nmax", "-3"],
            ["verify", "--suite", "proof-ineq", "--nmax", "1"],
            ["verify", "--suite", "turan-upper", "--nmax", "3", "--t", "1"],
        ],
        # Whole inputs, so that no two ids collide; the 401-digit --n is
        # cut after 20 digits.
        ids=lambda args: " ".join(a if len(a) <= 20 else f"{a[:20]}..." for a in args),
    )
    def test_exits_two_with_one_error_line(self, runner, tmp_path, args):
        c4 = write_graph6(tmp_path, "c4.g6", cycle(4))
        k12 = write_graph6(tmp_path, "k12.g6", complete(12))
        args = [a.format(dir=tmp_path, c4=c4, k12=k12) for a in args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len([line for line in lines if line.startswith("Error:")]) == 1
        assert "Traceback" not in result.output
