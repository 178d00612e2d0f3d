"""Seeded request streams for the servebench workloads.

Every stream is a pure function of (workload, seed): the same seed gives
byte-identical JSONL lines, and flopsim-serve sees nothing but those
lines. Streams are built in *rounds*: each round holds a fixed class
composition (which unit, precision, scheme and request kind appear, and
how often) in a seeded order, so a run's mix does not depend on the seed.
The seed only picks the order, the plan variants and the campaign seeds.
"""

import hashlib
import json
import random

OPS = ("add", "mul", "div", "sqrt", "mac")
BITS = (32, 48, 64)
SCHEMES = ("none", "parity", "residue", "dup", "tmr", "ecc")
OBJECTIVES = ("area", "speed")
# Fixed-depth plans pick a depth every unit supports at every precision
# (the shallowest max_stages, binary32 mul, is 10).
FIXED_STAGES = tuple(range(1, 9))

EXPLORE_FAULTS = 512
MATMUL_N = 8
MATMUL_FAULTS = 24
MATMUL_BITS = (32, 64)
MATMUL_SCHEMES = ("none", "ecc")

WORKLOADS = ("explore_cold", "matmul_cold")


def derive(seed, *parts):
    """A 62-bit value determined by the seed and a label path."""
    text = "|".join([str(seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 2


def _plan_pools(rng):
    """Per (op, bits): shuffled depth-sweep and fixed-depth plan variants."""
    sweep, fixed = {}, {}
    for op in OPS:
        for bits in BITS:
            variants = [(obj, harden, ieee, fabric)
                        for obj in OBJECTIVES for harden in SCHEMES
                        for ieee in (False, True) for fabric in (False, True)]
            s = list(variants)
            rng.shuffle(s)
            f = [v + (stages,) for v in variants for stages in FIXED_STAGES]
            rng.shuffle(f)
            sweep[(op, bits)] = s
            fixed[(op, bits)] = f
    return sweep, fixed


def _plan(op, bits, variant):
    obj, harden, ieee, fabric = variant[:4]
    req = {"type": "plan", "op": op, "bits": bits, "objective": obj,
           "ieee": ieee, "fabric": fabric}
    if harden != "none":
        req["harden"] = harden
    if len(variant) == 5:
        req["stages"] = variant[4]
    return req


def _explore_rounds(seed):
    """explore_cold rounds: 90 requests each, a third of them plans.

    Per (op, bits): one depth-sweep plan, one fixed-depth plan and four
    512-fault unit campaigns. Campaign (scheme, objective) pairs rotate
    with period three rounds, so every (op, bits, scheme, objective)
    appears once every 270 requests. Plans are drawn without replacement,
    so a stream never repeats a plan; the sweep pool (48 variants per
    (op, bits)) bounds the stream at 48 rounds.
    """
    rng = random.Random(derive(seed, "explore_cold"))
    sweep, fixed = _plan_pools(rng)
    for r in range(len(sweep[(OPS[0], BITS[0])])):
        batch = []
        for op in OPS:
            for bits in BITS:
                batch.append(_plan(op, bits, sweep[(op, bits)][r]))
                batch.append(_plan(op, bits, fixed[(op, bits)][r]))
                for k in range(4):
                    m = 4 * (r % 3) + k
                    batch.append({
                        "type": "campaign", "op": op, "bits": bits,
                        "scheme": SCHEMES[m % len(SCHEMES)],
                        "objective": OBJECTIVES[m // len(SCHEMES)],
                        "faults": EXPLORE_FAULTS})
        rng.shuffle(batch)
        yield batch


def _matmul_rounds(seed):
    """matmul_cold rounds: one n=8 campaign per (precision, scheme)."""
    rng = random.Random(derive(seed, "matmul_cold"))
    while True:
        batch = [{"type": "campaign", "kernel": "matmul", "n": MATMUL_N,
                  "bits": bits, "scheme": scheme, "faults": MATMUL_FAULTS}
                 for bits in MATMUL_BITS for scheme in MATMUL_SCHEMES]
        rng.shuffle(batch)
        yield batch


ROUNDS = {"explore_cold": _explore_rounds, "matmul_cold": _matmul_rounds}
ROUND_SIZE = {"explore_cold": 90, "matmul_cold": 4}


def requests(workload, seed, limit):
    """Up to `limit` requests, ids 0..n-1.

    Campaigns get a fresh seed derived from (seed, workload, position).
    """
    out = []
    for batch in ROUNDS[workload](seed):
        for req in batch:
            if len(out) >= limit:
                return out
            full = {"id": len(out)}
            full.update(req)
            if full["type"] == "campaign":
                full["seed"] = derive(seed, workload, len(out))
            out.append(full)
    return out


def render(reqs):
    """JSONL bytes, one request per line, key order as built."""
    return "".join(json.dumps(r, separators=(", ", ": ")) + "\n"
                   for r in reqs)


def request_class(req):
    if req["type"] == "plan":
        return "plan.fixed" if "stages" in req else "plan.sweep"
    return "campaign." + req.get("kernel", "unit")

