"""Correctness checks for benchmark jobs, run outside the timed spans.

Expected records come from closed forms (``workloads``) or from the
oracle below, which builds each quotient or Foelner matrix itself
(``algebra.transport``) and ranks it with its own elimination
(``algebra.rank_mod``).  Over Q the oracle ranks mod a 31-bit prime,
which equals the rational rank unless that prime divides every nonzero
maximal minor.  Property checks tie jobs together: a virtual Ore
dimension equals the Ore dimension on Z^d, and mod-p homology is at least
rational homology (universal coefficients).

The oracle runs in a child process (``python3 checker.py --oracle
TASKS``) so that its matrices do not count toward the benchmark
process's peak memory.
"""
from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction

from algebra import ORACLE_PRIME, matrix_from_json, rank_mod, transport

HOW = {"quotient-betti": "quotient", "elek-truncation": "folner"}
CSV_HEADER = ["method", "level", "normalizer", "raw", "normalized", "certified"]
TOL = Fraction(1, 20)


def fill_expectations(jobs, input_paths, workdir, env):
    """Ask the oracle for every expected raw value left open."""
    tasks = []
    for k, job in enumerate(jobs):
        for (method, level), want in job.expect.items():
            if want[1] is None:
                tasks.append({"job": k, "method": method, "level": level,
                              "input": input_paths[k], "how": HOW[method]})
    if not tasks:
        return
    path = f"{workdir}/oracle_tasks.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tasks, fh)
    proc = subprocess.run([sys.executable, __file__, "--oracle", path],
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"oracle failed: {proc.stderr.strip()[-500:]}")
    for task, raw in zip(tasks, json.loads(proc.stdout)):
        jobs[task["job"]].expect[(task["method"], task["level"])][1] = raw


def oracle_main(path):
    with open(path, encoding="utf-8") as fh:
        tasks = json.load(fh)
    raws = []
    for task in tasks:
        with open(task["input"], encoding="utf-8") as fh:
            kind, d, p, nrows, ncols, ent = matrix_from_json(json.load(fh))
        a, size = transport(kind, d, p, nrows, ncols, ent, task["level"], task["how"])
        raws.append(ncols * size - rank_mod(a, p or ORACLE_PRIME))
    json.dump(raws, sys.stdout)


# -- output parsing ------------------------------------------------------------

def parse_records(job, text):
    """(records, extra) from the CLI's CSV or JSON output."""
    if job.fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != CSV_HEADER:
            raise ValueError(f"bad CSV header {rows[:1]}")
        recs = [dict(zip(CSV_HEADER, r)) for r in rows[1:]]
        for r in recs:
            if r["certified"] not in ("true", "false"):
                raise ValueError(f"bad certified flag {r['certified']!r}")
            r["certified"] = r["certified"] == "true"
        extra = {}
    else:
        obj = json.loads(text)
        recs = obj.pop("records")
        extra = obj
    out = []
    for r in recs:
        out.append((r["method"], int(r["level"]), int(r["normalizer"]), int(r["raw"]),
                    _fraction(r["normalized"]), r["certified"]))
    return out, extra


def _fraction(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_output(job, text):
    """None when the output matches the job's expectations, else why not."""
    try:
        recs, extra = parse_records(job, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc}"
    got = {}
    for method, level, normalizer, raw, normalized, certified in recs:
        if (method, level) in got:
            return f"duplicate record {method}@{level}"
        if normalized != Fraction(raw, normalizer):
            return f"{method}@{level}: normalized {normalized} != {raw}/{normalizer}"
        if not isinstance(certified, bool):
            return f"{method}@{level}: certified flag {certified!r}"
        if not certified and method not in ("ore", "virtual-ore") \
                and not method.startswith("ore-h"):
            return f"{method}@{level}: exact row reported uncertified"
        got[(method, level)] = [normalizer, raw]
    if set(got) != set(job.expect):
        missing = sorted(set(job.expect) - set(got))
        extra_rows = sorted(set(got) - set(job.expect))
        return f"record set differs: missing {missing[:3]}, unexpected {extra_rows[:3]}"
    for key, want in job.expect.items():
        if got[key] != want:
            return f"{key[0]}@{key[1]}: got normalizer/raw {got[key]}, expected {want}"
    if job.command == "approx" and job.fmt == "json":
        return _check_agreement(job, extra)
    return None


def _check_agreement(job, extra):
    if extra.get("tol") != "1/20":
        return f"tol {extra.get('tol')!r}"
    want = {}
    if job.target:
        norm_t, raw_t = job.expect[(job.target, 0)]
        target = Fraction(raw_t, norm_t)
        for method in ("quotient-betti", "elek-truncation"):
            last = max(level for (m, level) in job.expect if m == method)
            normalizer, raw = job.expect[(method, last)]
            want[method] = abs(Fraction(raw, normalizer) - target) <= TOL
    if extra.get("agreement") != want:
        return f"agreement {extra.get('agreement')} != {want}"
    return None


def check_properties(jobs, outputs):
    """Cross-job properties on one round's outputs; {job index: why}.
    A pair is skipped when either output is None (already wrong)."""
    bad = {}
    for k, job in enumerate(jobs):
        partner = job.twin_of if job.twin_of is not None else job.same_as
        if partner is None or outputs[k] is None or outputs[partner] is None:
            continue
        if job.twin_of is not None:
            q_recs = {(m, lv): raw for m, lv, _, raw, _, _ in
                      parse_records(jobs[job.twin_of], outputs[job.twin_of])[0]}
            for m, lv, _, raw, _, _ in parse_records(job, outputs[k])[0]:
                if m.startswith("quotient-h") and raw < q_recs[(m, lv)]:
                    bad[k] = f"{m}@{lv}: mod-p {raw} < rational {q_recs[(m, lv)]}"
        if job.same_as is not None:
            vdim = parse_records(job, outputs[k])[0][0][4]
            ore = parse_records(jobs[job.same_as], outputs[job.same_as])[0][0][4]
            if vdim != ore:
                bad[k] = f"virtual Ore {vdim} != Ore {ore}"
    return bad


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--oracle":
        oracle_main(sys.argv[2])
    else:
        sys.exit("usage: checker.py --oracle TASKS.json")
