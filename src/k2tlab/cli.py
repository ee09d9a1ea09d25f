"""Command-line surface: detection, bound tables, proof tracing, Ramsey
search, graph generation, and the verification suites.

Exit codes: 0 = pass / nothing found, 1 = semantic finding (certificate
found, suite violations), 2 = usage, input or internal error. Input
errors are mapped in one place, ``_Main.invoke``: values out of range
(``GraphError``, ``ValueError``), malformed or oversized numbers
(``ArithmeticError``, such as ``--alpha 1/0`` or an n too large for a
float), unreadable paths (``OSError``), ``verify`` options a suite does
not take, and inputs above the caps (``constructions.ENUMERATION_CAP`` for
the exhaustive suites, ``graphs.MAX_VERTEX_PAIRS`` for generated graphs,
``detect.MAX_PATTERN_VERTICES`` for family members). An internal error is a
failed certificate self-check, ``detect.SelfCheckError``. Every command
reports through ``_emit``, which builds the JSON envelope (at
``SCHEMA_VERSION``) and stamps ``runtime_ms``. Reports are deterministic
apart from runtime_ms: keys are sorted and violation lists arrive
pre-sorted from the suites, so two clean runs of the same command give
byte-identical JSON modulo runtime_ms. The K2TLAB_THREADS environment
variable sets the default worker count for the sharded suites.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import click

from . import constructions, detect, suites, witness
from .bounds import clique_guarantee, clique_lower_report, induced_turan_upper
from .graphs import (
    MAX_VERTEX_PAIRS,
    Graph,
    GraphError,
    density,
    graph6_decode,
    graph6_encode,
    parse_edge_text,
)
from .ramsey import (
    DEFAULT_RAMSEY_CAP,
    RamseyQuery,
    explicit_family,
    family_minus_ebar,
    family_minus_vertex,
    ramsey_exact,
)


SCHEMA_VERSION = 3


class CommandError(click.ClickException):
    """Parameter or input errors exit with the usage-error code."""

    exit_code = 2


def load_graph(path: str, fmt: str = "auto") -> Graph:
    """Read a graph file: graph6 (one line) or 'u v' edge text."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise GraphError(f"{path}: empty graph file")
    if fmt == "auto":
        first = stripped.splitlines()[0].strip()
        # graph6 bytes are 63..126: a first line with whitespace is an edge,
        # one of digits a vertex count, and one led by "#" (35) a comment.
        edges = len(first.split()) > 1 or "\n" in stripped or first.isdigit()
        edges = edges or first.startswith("#")
        fmt = "edges" if edges and not first.startswith(">>graph6<<") else "graph6"
    if fmt == "graph6":
        return graph6_decode(stripped.splitlines()[0])
    if fmt == "edges":
        return parse_edge_text(text)
    raise GraphError(f"unknown graph format {fmt!r}")


def _echo(g: Graph) -> str:
    """A loaded graph as a report echoes it: its graph6 string, or, above
    ``MAX_VERTEX_PAIRS`` vertex pairs, the edge text ``load_graph`` reads
    back. graph6 takes a bit per vertex pair, 358 MB at the 2^16 vertices
    edge text may declare; edge text grows with the edges."""
    if g.n * (g.n - 1) // 2 <= MAX_VERTEX_PAIRS:
        return graph6_encode(g)
    return "\n".join([str(g.n), *(f"{u} {v}" for u, v in g.edges())])


_STARTED = "k2tlab.started"

# Errors in what the user supplied: values out of range, unparsable
# numbers, numbers too large for a float, unreadable paths.
_INPUT_ERRORS = (GraphError, ValueError, ArithmeticError, OSError)


def _emit(
    inputs: dict, results: dict, json_path: str | None, violations=None
) -> None:
    """Write the running command's report envelope, stamped with the time
    since ``main`` dispatched it, to ``json_path`` or stdout."""
    ctx = click.get_current_context()
    runtime_ms = int(1000 * (time.monotonic() - ctx.meta[_STARTED]))
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": ctx.command.name,
        "inputs": inputs,
        "results": results,
        "violations": violations or [],
        "runtime_ms": runtime_ms,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _k2t_certificate(cert: detect.InducedK2tCertificate) -> dict:
    return {"a": cert.a, "b": cert.b, "t_side": sorted(cert.t_side)}


def _parse_shard(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    try:
        i, k = text.split("/")
        return int(i), int(k)
    except ValueError:
        raise click.UsageError(f"--shard expects I/K, got {text!r}") from None


class _Main(click.Group):
    def invoke(self, ctx):
        ctx.meta[_STARTED] = time.monotonic()
        try:
            return super().invoke(ctx)
        except detect.SelfCheckError as exc:
            raise CommandError(f"internal error: {exc}") from exc
        except _INPUT_ERRORS as exc:
            raise CommandError(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Exact toolkit for clique bounds and induced Turan numbers of
    graphs with no induced K_(2,t)."""


@main.command("detect")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--t", default=2, show_default=True, type=int)
@click.option("--format", "fmt", default="auto", type=click.Choice(["auto", "graph6", "edges"]))
@click.option("--json", "json_path", type=click.Path())
def cmd_detect(graph_path, t, fmt, json_path):
    """Search a graph for an induced K_(2,t); exit 1 when one is found."""
    g = load_graph(graph_path, fmt)
    cert = detect.find_induced_k2t(g, t)
    results: dict = {"found": cert is not None}
    if cert is not None:
        results["certificate"] = _k2t_certificate(cert)
    _emit({"graph": _echo(g), "t": t}, results, json_path)
    sys.exit(1 if cert is not None else 0)


def _float_or_fraction(text: str):
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return float(text)


@main.command("bounds")
@click.option("--n", "n_list", required=True, help="vertex count(s), comma separated")
@click.option("--alpha", "alpha_list", required=True, help="density value(s), e.g. 0.5 or 9/21")
@click.option("--t", "t_list", default="2", show_default=True, help="t value(s)")
@click.option("--v-h", "v_h", type=int, default=None, help="|V(H)| for induced-Turan bounds")
@click.option("--ramsey", "ramsey_value", type=int, default=None, help="R(K_t,(H-x)) for induced-Turan bounds")
@click.option("--json", "json_path", type=click.Path())
@click.option("--csv", "csv_path", type=click.Path())
def cmd_bounds(n_list, alpha_list, t_list, v_h, ramsey_value, json_path, csv_path):
    """Evaluate every clique lower bound (and optional induced-Turan
    upper bounds) over a grid of (n, alpha, t)."""
    ns = [int(x) for x in n_list.split(",")]
    alphas = [_float_or_fraction(x) for x in alpha_list.split(",")]
    ts = [int(x) for x in t_list.split(",")]
    rows = []
    turan_rows = []
    for n in ns:
        for alpha in alphas:
            for t in ts:
                reports = clique_lower_report(n, alpha, t)
                reports.append(clique_guarantee(n, alpha, t))
                for entry in reports:
                    row = {"n": n, "alpha": float(alpha), "t": t}
                    rows.append(row | asdict(entry))
                if v_h is not None or ramsey_value is not None:
                    for tb in induced_turan_upper(
                        n, t, v_h=v_h, ramsey_value=ramsey_value
                    ):
                        turan_rows.append(asdict(tb))
    results = {"rows": rows}
    if turan_rows:
        results["turan_rows"] = turan_rows
    if csv_path:
        with open(csv_path, "w") as fh:
            writer = csv.DictWriter(fh, rows[0].keys(), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    inputs = {
        "n": ns,
        "alpha": [float(a) for a in alphas],
        "t": ts,
        "v_h": v_h,
        "ramsey": ramsey_value,
    }
    _emit(inputs, results, json_path)


@main.command("witness")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--h", "h_path", required=True, type=click.Path(exists=True))
@click.option("--t", default=2, show_default=True, type=int)
@click.option("--json", "json_path", type=click.Path())
def cmd_witness(graph_path, h_path, t, json_path):
    """Run the constructive extraction on (G, H, t) and print the trace
    outcome; the trace must re-verify before a clean exit."""
    g = load_graph(graph_path)
    h = load_graph(h_path)
    trace = witness.extract(g, h, t)
    verified = witness.verify_trace(g, trace, h, t)
    results: dict = {"outcome": trace.outcome, "verified": verified}
    if trace.selected_edge is not None:
        results["selected_edge"] = list(trace.selected_edge)
        results["s_vertices"] = sorted(trace.s_vertices)
    if trace.slack is not None:
        results["slack"] = asdict(trace.slack)
    cert = trace.certificate
    if isinstance(cert, detect.Embedding):
        results["certificate"] = {
            "kind": "embedding",
            "pattern": graph6_encode(cert.pattern),
            "mapping": list(cert.mapping),
        }
    elif isinstance(cert, detect.InducedK2tCertificate):
        results["certificate"] = {
            "kind": "induced-k2t",
            **_k2t_certificate(cert),
        }
    inputs = {"graph": _echo(g), "h": graph6_encode(h), "t": t}
    _emit(inputs, results, json_path)
    if not verified:
        raise CommandError("trace failed independent re-verification")
    found = trace.outcome in (
        witness.OUTCOME_H_EMBEDDED,
        witness.OUTCOME_INDUCED_K2T,
    )
    sys.exit(1 if found else 0)


@main.command("verify")
@click.option("--suite", "suite_id", required=True, type=click.Choice(suites.SUITE_IDS))
@click.option("--nmax", type=int, default=None, help="largest n for exhaustive suites")
@click.option("--t", type=int, default=None, help="restrict to one t")
@click.option("--shard", default=None, help="I/K interval of the search space")
@click.option("--workers", type=click.IntRange(min=1), default=None, help="worker processes, at most one per CPU and 2^16-graph block (default: K2TLAB_THREADS or 1)")
@click.option("--json", "json_path", type=click.Path())
def cmd_verify(suite_id, nmax, t, shard, workers, json_path):
    """Run a verification suite; exit 1 iff it reports violations."""
    result = suites.run_suite(
        suite_id, n_max=nmax, t=t, workers=workers, shard=_parse_shard(shard)
    )
    result.violations.sort(key=lambda v: (v["claim"], v.get("graph6") or ""))
    results = {
        "checked": result.checked,
        "passed": result.passed,
        "violation_count": result.violation_count,
        "boundary_cases": result.boundary_cases,
        "details": result.details,
    }
    inputs = result.params | {"suite": suite_id}
    _emit(inputs, results, json_path, result.violations)
    click.echo(
        f"suite {suite_id}: checked={result.checked} "
        f"violations={result.violation_count} "
        f"boundary={result.boundary_cases}",
        err=True,
    )
    sys.exit(0 if result.passed else 1)


@main.command("generate")
@click.argument("kind")
@click.argument("params", nargs=-1)
@click.option("--seed", type=int, default=0, show_default=True, help="PRNG seed for gnp")
@click.option("--out", "out_path", type=click.Path())
@click.option("--json", "json_path", type=click.Path())
def cmd_generate(kind, params, seed, out_path, json_path):
    """Generate a graph (complete, empty, cycle, path, complete-bipartite,
    turan, polarity, gnp) and emit it as graph6."""
    if kind == "gnp":
        if len(params) != 2:
            raise click.UsageError("generate gnp takes two parameters, N and P")
        g = constructions.random_gnp(int(params[0]), float(params[1]), seed)
    else:
        g = constructions.standard(kind, *(int(x) for x in params))
    g6 = graph6_encode(g)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(g6 + "\n")
    else:
        click.echo(g6)
    if json_path:
        stats: dict = {"n": g.n, "edges": g.edge_count, "graph6": g6}
        if g.n >= 2:
            stats["alpha"] = float(density(g))
        inputs = {
            "kind": kind,
            "params": list(params),
            "seed": seed,
            "prng": constructions.PRNG_NAME,
        }
        _emit(inputs, stats, json_path)


@main.command("ramsey")
@click.option("--t", required=True, type=int)
@click.option("--r", type=int, default=None, help="clique target: family {K_r}")
@click.option("--h", "h_path", type=click.Path(exists=True), default=None, help="family {H - x} from this graph")
@click.option("--ebar", is_flag=True, default=False, help="use {H - ebar} instead of {H - x}")
@click.option("--cap", type=int, default=DEFAULT_RAMSEY_CAP, show_default=True)
@click.option("--json", "json_path", type=click.Path())
def cmd_ramsey(t, r, h_path, ebar, cap, json_path):
    """Exact small Ramsey number for K_t versus a clique or a deletion
    family, with the extremal witness as graph6."""
    if (r is None) == (h_path is None):
        raise click.UsageError("supply exactly one of --r or --h")
    if r is not None:
        family = explicit_family([constructions.complete(r)])
        target = f"K_{r}"
    else:
        h = load_graph(h_path)
        family = family_minus_ebar(h) if ebar else family_minus_vertex(h)
        target = f"{{H - {'ebar' if ebar else 'x'}}} for H={graph6_encode(h)}"
    result = ramsey_exact(RamseyQuery(t=t, family=family), n_cap=cap)
    results = {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "witness": (
            graph6_encode(result.lower_witness)
            if result.lower_witness is not None
            else None
        ),
        "family": [graph6_encode(m) for m in family.members],
    }
    _emit({"t": t, "target": target, "cap": cap}, results, json_path)


if __name__ == "__main__":
    main()
