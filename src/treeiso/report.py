"""Per-tree bound reports, the verification suite, and CSV/JSON emission."""
from __future__ import annotations

import csv
import io
import json
import math
import sys

from .bounds import (
    analytic_peak_lower_bounds,
    # check_flux_conservation and count_sizes_with_cut_at_most are not
    # called here, since flux_identity_failures checks every subset at once
    # and _cut_count_table counts every row in one pass; they stay names of
    # this module because bench/spans.py wraps them for its timing spans.
    check_flux_conservation,
    count_sizes_with_cut_at_most,
    cut_count_upper_bound,
    edge_peak_lower_bound,
    flux_identity_failures,
    prefix_upper_bounds,
    sandwich_check,
)
from .profile import (
    DEFAULT_DP_CAP,
    DEFAULT_ORACLE_LIMIT,
    IsoProfile,
    SizeCapError,
    brute_force_profiles,
    compute_profile,
    subtree_profiles,
)
from .tree import RootedTree, generate_tree, subtree_weights

FORMATS = ("csv", "json")

SWEEP_BINARY_DEPTHS = tuple(range(2, 14))
SWEEP_TARY_BRANCHING = (3, 4, 5, 9)


def _verdict(name: str, ok: bool, details: str) -> dict:
    """One verdict or finding of a report, as it is printed."""
    return {"name": name, "pass": ok, "details": details}


def derived_parameter_bounds(profile: IsoProfile, delta: int) -> dict:
    """Lower bounds on layout/decomposition parameters implied by the profiles.

    pathwidth is bounded by the vertex peak (bandwidth by the same value,
    so it is not repeated), cutwidth by the edge peak, wirelength by the
    profile sum, and thinness by the vertex peak over the maximum degree.
    """
    thinness = -(-profile.vertex_peak // delta) if delta > 0 else 0
    return {
        "pathwidth_lb": profile.vertex_peak,
        "cutwidth_lb": profile.edge_peak,
        "wirelength_lb": sum(profile.edge_values),
        "thinness_lb": thinness,
    }


def _cut_count_table(edge_values, eta: int, k_cap: int):
    """Rows {k, ell, bound} for k = 0..k_cap, where ell(k) counts the
    cardinalities with minimum edge boundary <= k and bound is
    cut_count_upper_bound(eta, k); and whether ell <= bound in every row."""
    # One pass: at[k] counts the cardinalities whose minimum is exactly k,
    # and ell is their running sum.
    at = [0] * (k_cap + 1)
    for value in edge_values:
        if value <= k_cap:
            at[value] += 1
    table = []
    ok = True
    ell = 0
    for k, count in enumerate(at):
        ell += count
        bound = cut_count_upper_bound(eta, k)
        table.append({"k": k, "ell": ell, "bound": str(bound)})
        ok = ok and ell <= bound
    return table, ok


def analyze_tree(
    tree: RootedTree,
    source: dict = None,
    *,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    dp_cap: int = DEFAULT_DP_CAP,
) -> dict:
    """Run every check on one tree and return its report, the dict that
    emit prints: tree, profile, bounds, derived, verdicts, findings, pass.

    Mandatory verdicts: oracle equivalence (when n is small enough), flux
    conservation, the binomial cut-count bound, the certified edge-peak
    lower bound, prefix dominance, and the peak sandwich.  The one finding,
    which never gates, is the (t-1)*d edge ceiling of a complete t-ary
    tree: no verdict decides it, where they decide the closed-form
    estimate (at most p) and the t*d and d ceilings (at least the prefix
    maxima).
    """
    source = dict(source or {})
    profile = compute_profile(tree, dp_cap)
    weights = subtree_weights(tree)
    delta = tree.max_degree()
    n = tree.n
    verdicts = []
    findings = []

    if n <= oracle_limit:
        oracle_edge, oracle_vertex = brute_force_profiles(tree, oracle_limit)
        ok = (
            list(profile.edge_values) == oracle_edge
            and list(profile.vertex_values) == oracle_vertex
        )
        detail = "dp == enumeration over all subsets" if ok else (
            f"dp edge={list(profile.edge_values)} vertex={list(profile.vertex_values)} "
            f"oracle edge={oracle_edge} vertex={oracle_vertex}"
        )
        verdicts.append(_verdict("oracle: dp profiles equal exhaustive enumeration", ok, detail))

    flux_failures = flux_identity_failures(tree, weights)
    verdicts.append(
        _verdict(
            "flux_conservation: f(root) + sum_e f(e) == |S|",
            not flux_failures,
            f"w(v) != 1 + sum_c w(c) at vertices {flux_failures[:3]}" if flux_failures
            else f"w(v) == 1 + sum_c w(c) at all {n} vertices, so for every S",
        )
    )

    # p is the first k whose bound reaches n, and ell(k) <= n always, so
    # every row past p holds on every tree; the table ends at p.
    p = edge_peak_lower_bound(n, weights.eta)
    table, count_bound_ok = _cut_count_table(profile.edge_values, weights.eta, p)
    verdicts.append(
        _verdict(
            "cut_count_bound: ell(k) <= 2*C(2*eta+k, k)",
            count_bound_ok,
            f"k = 0..{p}, eta = {weights.eta}",
        )
    )
    verdicts.append(
        _verdict(
            "edge_peak_lb: p <= edge_peak",
            p <= profile.edge_peak,
            f"p = {p}, edge_peak = {profile.edge_peak}",
        )
    )

    edge_ub, vertex_ub = prefix_upper_bounds(tree)
    dominance_violations = [
        i + 1
        for i in range(n)
        if edge_ub[i] < profile.edge_values[i] or vertex_ub[i] < profile.vertex_values[i]
    ]
    verdicts.append(
        _verdict(
            "prefix_dominance: |delta(S_i)| >= b_e(i) and |phi(S_i)| >= b_v(i)",
            not dominance_violations,
            f"{2 * n} comparisons"
            + (f", first violations at i = {dominance_violations[:3]}" if dominance_violations else ""),
        )
    )

    verdicts.append(
        _verdict(
            "sandwich: edge_peak >= vertex_peak >= edge_peak/delta",
            sandwich_check(profile, delta),
            f"edge_peak = {profile.edge_peak}, vertex_peak = {profile.vertex_peak}, "
            f"delta = {delta}",
        )
    )

    be_lb, _ = analytic_peak_lower_bounds(n, weights.eta, max(delta, 1))

    if source.get("kind") == "complete_tary":
        t = source["params"]["t"]
        ceiling = (t - 1) * weights.depth
        findings.append(
            _verdict(
                "tary_edge_upper_(t-1)d: edge_peak <= (t-1)*d",
                profile.edge_peak <= ceiling,
                f"edge_peak = {profile.edge_peak}, (t-1)*d = {ceiling}",
            )
        )

    return {
        "tree": {**source, "n": n, "depth": weights.depth, "delta": delta, "eta": weights.eta},
        "profile": {
            "edge_peak": profile.edge_peak,
            "vertex_peak": profile.vertex_peak,
            "edge_argpeak": profile.edge_argpeak,
            "vertex_argpeak": profile.vertex_argpeak,
        },
        "bounds": {
            "p": p,
            "theorem1": table,
            "prefix_edge_max": max(edge_ub),
            "prefix_vertex_max": max(vertex_ub),
            "corollary3_be_lb": be_lb,
        },
        "derived": derived_parameter_bounds(profile, delta),
        "verdicts": verdicts,
        "findings": findings,
        "pass": all(v["pass"] for v in verdicts),
    }


def verify_suite(
    items,
    *,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
    dp_cap: int = DEFAULT_DP_CAP,
) -> dict:
    """Run every check on a list of trees and return the suite result that
    emit prints: options, reports, errors, exit_status.

    Items are RootedTrees or entries {"source", "tree"}; an entry
    {"source", "error"}, a tree that failed to load, goes into errors as it
    is.  Exit status 2 when any input failed to load or exceeded a cap, else
    1 when any mandatory verdict failed, else 0.  Identical inputs give
    byte-identical serialized results.
    """
    reports = []
    errors = []
    for index, item in enumerate(items):
        if isinstance(item, RootedTree):
            item = {"source": {"index": index}, "tree": item}
        if "error" in item:
            errors.append(item)
            continue
        try:
            reports.append(
                analyze_tree(item["tree"], item["source"], oracle_limit=oracle_limit, dp_cap=dp_cap)
            )
        except SizeCapError as exc:
            errors.append({"source": item["source"], "error": str(exc)})
    if errors:
        status = 2
    elif any(not r["pass"] for r in reports):
        status = 1
    else:
        status = 0
    return {
        "options": {"oracle_limit": oracle_limit, "dp_cap": dp_cap},
        "reports": reports,
        "errors": errors,
        "exit_status": status,
    }


def sweep_rows(max_vertices: int = DEFAULT_DP_CAP) -> list:
    """Peak measurements across complete t-ary trees at desk scale.

    Binary trees for depths 2..13 plus branching factors 3, 4, 5 and 9 with
    every depth >= 2, each t up to the deepest tree of at most max_vertices
    vertices, which also caps the DP.  Each row carries both peaks, the
    certified lower bound p, the trend ratios edge_peak/d and
    vertex_peak*sqrt(t)/d, the t*d / (t-1)*d / d upper-bound values, and
    whether the cut-count bound held for every k up to p.

    Every child of the root of T_{d+1} roots a copy of T_d, so each t
    generates only its deepest tree, and the profiles of every depth come
    from one subtree_profiles call at the vertices of its first-child path.
    """
    rows = []
    for t in (2,) + SWEEP_TARY_BRANCHING:
        # n(T_1) = 1 and n(T_d) = 1 + t*n(T_{d-1}).
        d_max, n = 1, 1
        while 1 + t * n <= max_vertices and (t > 2 or d_max < SWEEP_BINARY_DEPTHS[-1]):
            d_max, n = d_max + 1, 1 + t * n
        if d_max < 2:
            continue
        tree = generate_tree("complete_tary", {"t": t, "d": d_max}, max_vertices=max_vertices)
        # spine[k], the vertex at depth k on the first-child path, roots a
        # copy of T_{d_max - k}.
        spine = [tree.root]
        while tree.children[spine[-1]]:
            spine.append(tree.children[spine[-1]][0])
        depths = range(2, d_max + 1)
        profiles = subtree_profiles(tree, [spine[d_max - d] for d in depths], max_vertices)
        for d in depths:
            profile = profiles[spine[d_max - d]]
            # Each of T_d's d levels holds one subtree weight, so eta = d.
            p = edge_peak_lower_bound(profile.n, d)
            _, ok = _cut_count_table(profile.edge_values, d, p)
            rows.append(
                {
                    "t": t,
                    "d": d,
                    "n": profile.n,
                    "eta": d,
                    "edge_peak": profile.edge_peak,
                    "vertex_peak": profile.vertex_peak,
                    "p": p,
                    "edge_peak_over_d": profile.edge_peak / d,
                    "vertex_peak_sqrt_t_over_d": profile.vertex_peak * math.sqrt(t) / d,
                    "edge_upper_td": t * d,
                    "edge_upper_t_minus_1_d": (t - 1) * d,
                    "vertex_upper_d": d,
                    "p_le_edge_peak": p <= profile.edge_peak,
                    "cut_count_bound_ok": ok,
                }
            )
    return rows


def emit(obj, fmt: str = "json", destination=None) -> None:
    """Write a profile, report, suite result, or row list as CSV or JSON.

    destination None or '-' means standard output; otherwise a file path.
    Identical inputs produce identical bytes.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}, expected 'csv' or 'json'")
    text = _render(obj, fmt)
    if destination is None or destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _render(obj, fmt: str) -> str:
    """The JSON payload, or the CSV header and rows, of one emittable object:
    a profile, a report (a dict with verdicts), a suite result (a dict with
    reports) or a row list."""
    payload = obj
    if isinstance(obj, IsoProfile):
        payload = obj.to_dict()
        header = ["i", "b_e", "b_v"]
        rows = [[i + 1, e, v] for i, (e, v) in enumerate(zip(obj.edge_values, obj.vertex_values))]
    elif isinstance(obj, dict) and "verdicts" in obj:
        header, rows = ["field", "value"], _flatten_dict(obj)
    elif isinstance(obj, dict) and "reports" in obj:
        header = ["source", "n", "depth", "delta", "eta", "edge_peak", "vertex_peak", "p", "status"]
        rows = [
            [_source_label(r["tree"]), *(r["tree"][key] for key in header[1:5])]
            + [r["profile"]["edge_peak"], r["profile"]["vertex_peak"], r["bounds"]["p"]]
            + ["pass" if r["pass"] else "fail"]
            for r in obj["reports"]
        ]
        rows += [
            [_source_label(e["source"]), *[""] * 7, f"error: {e['error']}"] for e in obj["errors"]
        ]
    elif isinstance(obj, list):
        header = list(obj[0]) if obj else []
        rows = [[row.get(k) for k in header] for row in obj]
    else:
        raise TypeError(f"cannot emit object of type {type(obj).__name__}")
    if fmt != "csv":
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _flatten_dict(value, prefix: str = "") -> list:
    pairs = []
    if isinstance(value, dict):
        for key, sub in value.items():
            pairs.extend(_flatten_dict(sub, f"{prefix}{key}."))
    elif isinstance(value, list):
        for idx, sub in enumerate(value):
            pairs.extend(_flatten_dict(sub, f"{prefix}{idx}."))
    else:
        pairs.append((prefix[:-1], value))
    return pairs


def _source_label(source: dict) -> str:
    """A suite entry's CSV label: its file path or spec as given, the
    --gen spec of a generated tree (seed left out when 0), else its label
    or index."""
    for key in ("path", "spec", "kind", "label", "index"):
        if key in source:
            return _gen_spec(source) if key == "kind" else str(source[key])
    return json.dumps(source, sort_keys=True)


def _gen_spec(source: dict) -> str:
    params = dict(source.get("params") or {})
    if source.get("seed"):
        params["seed"] = source["seed"]
    args = ",".join(f"{key}={value}" for key, value in params.items())
    return f"{source['kind']}:{args}" if args else str(source["kind"])
