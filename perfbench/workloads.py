"""Seeded inputs and reference answers for the three workloads.

`build(workload, seed, outdir)` writes every model and proof file the
requests need into `outdir` and returns the manifest: one pass of requests in
a fixed order, the hash-seed probe requests, and a reference answer for each.
The same seed gives byte-identical files and manifest.

Run as a script it writes `manifest.json` next to the files:

    PYTHONPATH=src python3 perfbench/workloads.py model-check 7 OUTDIR

Model and formula generation and all reference answers use only
`refeval`; proof-check documents are built with `pckfo.prooflib`, so that
workload needs `src/` on the path.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refeval  # noqa: E402

WORKLOADS = ("model-check", "brute-force", "proof-check")

# Inputs of the hash-seed probe come from this fixed seed, so that the probe
# asks the same questions on every run.
PROBE_SEED = 0

# Known defects of the program that the workloads keep on purpose. A request
# tagged with one of these either matches its reference or fails exactly as
# described; any other mismatch makes the run incorrect.
KNOWN_DEFECTS = {
    "deep-recursion": "K[a] chains of depth >= 400 raise a raw RecursionError"
                      " out of cli.main instead of an answer or a typed error",
    "taut-cap": "tautologies over more than 18 opaque atoms are rejected as"
                " 'not an instance of Prop' (exit 1)",
    "fuzz-budget": "fuzz at 3 states, 2 domain elements, 2 agents and"
                   " singleton atoms exits 2 with a budget error, although it"
                   " needs only 100 enumerated models",
}

F = Fraction
P, Q = ("atom", "p"), ("atom", "q")
G = ("G",)


def _rng(workload, seed, tag="") -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def _shuffle(workload, requests):
    """Interleave the request kinds in an order that does not depend on the
    seed: module-level caches of the program make a request's cost depend
    on what ran before it, and a fixed order keeps that the same in every
    run."""
    random.Random(f"{workload}:order").shuffle(requests)


def _write_json(outdir, name, doc) -> str:
    """Write doc under outdir and return the bare file name: requests run
    with outdir as their working directory."""
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return name


def _request(rid, argv, expect=None, known=None, **extra) -> dict:
    """A request; `expect` is its reference answer (probe requests have
    none: only their agreement across hash seeds counts)."""
    req = {"id": rid, "argv": argv, "expect": expect}
    if known:
        req["known"] = known
    req.update(extra)
    return req


# ---------------------------------------------------------------------------
# model-check

MC_MODELS = (("random", 50), ("random", 100), ("random", 200), ("random", 400),
             ("ladder", 50), ("ladder", 100), ("ladder", 200), ("ladder", 300))
MC_FORMULAS = (
    ("K", "a", ("K", "b", P)),
    ("E", G, P),
    ("C", G, P),
    ("P", "a", F(1, 2), P),
    ("Es", G, F(3, 4), P),
    ("Cs", G, F(1, 2), P),
    ("Cs", G, F(3, 4), ("or", P, Q)),
    ("K", "a", ("imp", P, ("Es", G, F(1, 2), Q))),
)
# Depths of the K[a] chains; the seed adds 0-9 to each. The program answers
# the first three and raises RecursionError on the rest.
MC_DEEP_DEPTHS = (150, 220, 280, 410, 450, 490)
MC_COARSE_SIZES = (30, 45, 60, 90)
MC_COARSE_FORMULAS = (
    ("P", "a", F(1, 2), P),
    ("P", "b", F(1, 3), ("or", P, Q)),
    ("P", "a", F(3, 4), ("K", "b", P)),
)


def _names(n):
    return [f"s{k:03d}" for k in range(n)]


def _model_doc(states, succ, truth, atoms_of=None) -> dict:
    """Two agents a, b and group G; spaces are uniform over each state's
    successors, with singleton atoms unless `atoms_of` merges them."""
    prob, access = {}, {}
    for agent in ("a", "b"):
        access[agent] = sorted([s, t] for s in states for t in succ[agent][s])
        prob[agent] = {}
        for s in states:
            sample = sorted(succ[agent][s])
            atoms = atoms_of(sample) if atoms_of else [[t] for t in sample]
            w = F(1, len(atoms))
            prob[agent][s] = {"sample": sample, "atoms": atoms,
                              "weights": {str(k): str(w) for k in range(len(atoms))}}
    relations = [{"symbol": sym, "arity": 0,
                  "table": {s: [[]] for s in states if s in truth[sym]}}
                 for sym in sorted(truth)]
    return {"states": states, "domain": ["d0"], "agents": ["a", "b"],
            "groups": {"G": ["a", "b"]}, "relations": relations,
            "access": access, "prob": prob}


def random_model_doc(n, rng, degree=8, p_share=0.9, atoms_of=None) -> dict:
    states = _names(n)
    succ = {agent: {s: rng.sample(states, min(degree, n)) for s in states}
            for agent in ("a", "b")}
    truth = {"p": {s for s in states if rng.random() < p_share},
             "q": {s for s in states if rng.random() < 0.5}}
    return _model_doc(states, succ, truth, atoms_of)


def ladder_model_doc(n, rng) -> dict:
    """Windows of 4 successors, offset by one between the agents and clipped
    at the last state, where p is false; Cs peels a few states per round."""
    states = _names(n)
    succ = {agent: {s: {states[min(k + d, n - 1)] for d in range(lo, lo + 4)}
                    for k, s in enumerate(states)}
            for agent, lo in (("a", 1), ("b", 2))}
    truth = {"p": set(states[:-1]),
             "q": {s for s in states if rng.random() < 0.5}}
    return _model_doc(states, succ, truth)


def _pairs(sample):
    return [sample[k:k + 2] for k in range(0, len(sample), 2)]


def coarse_model_doc(n, rng) -> dict:
    """Spaces whose atoms pair up successors, with p and q mixed."""
    while True:
        doc = random_model_doc(n, rng, degree=4, p_share=0.5, atoms_of=_pairs)
        if all(_eval_expect(doc, f)["exit"] == 5 for f in MC_COARSE_FORMULAS):
            return doc


def _eval_expect(doc, f) -> dict:
    """Reference answer of `pckfo eval --json` over every state."""
    m = refeval.RefModel(doc)
    try:
        ext = refeval.extension(m, f)
    except refeval.NotMeasurable:
        return {"exit": 5}
    return {"exit": 0 if ext == m.states else 1, "holds": sorted(ext)}


def _eval_request(rid, path, doc, f, **extra) -> dict:
    return _request(rid, ["eval", "--model", path, "--formula",
                          refeval.to_text(f), "--json"],
                    _eval_expect(doc, f), **extra)


def build_model_check(seed, outdir) -> dict:
    rng = _rng("model-check", seed)
    requests = []
    for shape, n in MC_MODELS:
        make = random_model_doc if shape == "random" else ladder_model_doc
        doc = make(n, rng)
        path = _write_json(outdir, f"{shape}-{n}.json", doc)
        for k, f in enumerate(MC_FORMULAS):
            requests.append(_eval_request(f"{shape}-{n}/f{k}", path, doc, f))
    doc = random_model_doc(50, rng)
    path = _write_json(outdir, "deep-50.json", doc)
    for base in MC_DEEP_DEPTHS:
        depth = base + rng.randrange(10)
        f = P
        for _ in range(depth):
            f = ("K", "a", f)
        requests.append(_eval_request(
            f"deep-{depth}", path, doc, f, depth=depth,
            known="deep-recursion" if depth >= 400 else None))
    for n in MC_COARSE_SIZES:
        doc = coarse_model_doc(n, rng)
        path = _write_json(outdir, f"coarse-{n}.json", doc)
        for k, f in enumerate(MC_COARSE_FORMULAS):
            requests.append(_eval_request(f"coarse-{n}/P{k}", path, doc, f))
    _shuffle("model-check", requests)
    # Whether a deep chain overflows the stack depends on what the process
    # evaluated before it. Chains run shallow to deep, so the outcome is the
    # same in every pass.
    slots = [k for k, r in enumerate(requests) if "depth" in r]
    for k, r in zip(slots, sorted((requests[k] for k in slots),
                                  key=lambda r: r["depth"])):
        requests[k] = r

    probe_rng = _rng("model-check", PROBE_SEED, "probe")
    probe = []
    for name, doc, formulas in (
            ("coarse-30", coarse_model_doc(30, probe_rng),
             (("Es", G, F(1, 2), P), ("Cs", G, F(1, 2), P))),
            ("random-50", random_model_doc(50, probe_rng), (MC_FORMULAS[2],)),
            ("ladder-50", ladder_model_doc(50, probe_rng), (MC_FORMULAS[6],))):
        path = _write_json(outdir, f"probe-{name}.json", doc)
        for f in formulas:
            probe.append(_request(f"probe-{name}/{f[0]}", [
                "eval", "--model", path, "--formula", refeval.to_text(f), "--json"]))
    return {"requests": requests, "probe": probe}


# ---------------------------------------------------------------------------
# brute-force

VALIDITY_FAMILIES = ("epistemic-distribution", "fixed-point",
                     "finite-group-equivalence", "probabilistic-monotonicity")
CRITERION_1_SHAPE = ["--budget-states", "3", "--budget-domain", "2",
                     "--budget-agents", "2", "--atom-mode", "singleton",
                     "--grid", "0,1/2,1"]
FUZZ_VARIANTS = (
    ("default", []),
    ("singleton", ["--atom-mode", "singleton"]),
    ("agents-2", ["--budget-agents", "2"]),
    ("class-CON", ["--class", "CON"]),
    ("class-OBJ", ["--class", "OBJ"]),
    ("class-SDP", ["--class", "SDP"]),
    ("class-UNIF", ["--class", "UNIF"]),
)
_FUZZ_OK = {"exit": 0, "verdict": "valid-in-suite"}
# The schema `pckfo demo validity --family invalid-distribution` refutes.
_INVALID_DIST = ("imp", ("Es", ("a",), F(1, 2), ("imp", P, Q)),
                 ("imp", ("Es", ("a",), F(1, 2), P), ("Es", ("a",), F(1, 2), Q)))
# The pass is laid out so that its latency median falls in the middle of
# the small fuzz runs and its 90th percentile in the middle of the full-size
# ones, each a block of requests of like cost, and not on the edge between
# two kinds of request. The demos and the exhaustive searches lie above it.
FUZZ_SMALL_N = 60
FUZZ_SMALL_COUNT = 98
FUZZ_FULL_ROUNDS = 2
FIND_SAT_COUNT = 20
# Unsatisfiable search formulas walk the whole default enumeration.
FIND_UNSAT = (
    ("and", P, ("not", P)),
    ("and", ("K", "a", Q), ("not", ("K", "a", Q))),
)


def _literal(rng, atom):
    return atom if rng.random() < 0.5 else ("not", atom)


def _sat_formula(rng):
    """A K/P sentence over p, q and agent a that a single state without
    successors satisfies: literals true there, K[a] of any literals (which
    holds vacuously) and P[a]>=r of the literals true there (the one-point
    space gives them measure 1). The search stops within its first models."""
    here = ("and", _literal(rng, P), _literal(rng, Q))
    anything = ("and", _literal(rng, P), _literal(rng, Q))
    r = rng.choice((F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)))
    parts = [here, ("K", "a", anything), ("P", "a", r, here)]
    rng.shuffle(parts)
    return ("and", parts[0], ("and", parts[1], parts[2]))


def build_brute_force(seed, outdir) -> dict:
    rng = _rng("brute-force", seed)

    def sub():
        return str(rng.randrange(1 << 30))

    requests = []
    for fam in VALIDITY_FAMILIES:
        requests.append(_request(
            f"demo-{fam}", ["demo", "validity", "--family", fam, "--seed", sub(),
                            "--json"], {"exit": 0, "verdict": "valid-in-suite"}))
    requests.append(_request(
        "demo-invalid-distribution",
        ["demo", "validity", "--family", "invalid-distribution", "--json"],
        {"exit": 0, "verdict": "valid-in-suite", "counterexample": _INVALID_DIST}))
    for k in range(FUZZ_FULL_ROUNDS):
        for name, flags in FUZZ_VARIANTS:
            requests.append(_request(f"fuzz-{name}-{k}", [
                "fuzz", *flags, "--seed", sub(), "--json"], _FUZZ_OK))
    requests.append(_request(
        "fuzz-criterion-1-shape", ["fuzz", *CRITERION_1_SHAPE, "--n", "200",
                                   "--seed", sub(), "--json"],
        _FUZZ_OK, known="fuzz-budget"))
    for k in range(FUZZ_SMALL_COUNT):
        requests.append(_request(f"fuzz-small-{k}", [
            "fuzz", "--n", str(FUZZ_SMALL_N), "--seed", sub(), "--json"], _FUZZ_OK))
    for k, f in enumerate(FIND_UNSAT):
        requests.append(_request(f"find-unsat-{k}", [
            "find", "--formula", refeval.to_text(f), "--json"],
            {"exit": 1, "verdict": "not-found-within-budget"}))
    for k in range(FIND_SAT_COUNT):
        f = _sat_formula(rng)
        requests.append(_request(f"find-sat-{k}", [
            "find", "--formula", refeval.to_text(f), "--json"],
            {"exit": 0, "verdict": "sat", "witness": f}))
    _shuffle("brute-force", requests)

    probe_rng = _rng("brute-force", PROBE_SEED, "probe")
    probe = [
        _request("probe-fuzz-n200-seed7", ["fuzz", "--n", "200", "--seed", "7", "--json"]),
        _request("probe-fuzz-singleton", ["fuzz", "--n", "200", "--atom-mode",
                                          "singleton", "--seed", "7", "--json"]),
        _request("probe-fuzz-class-CON", ["fuzz", "--class", "CON", "--n", "200",
                                          "--seed", "7", "--json"]),
        _request("probe-find-sat", ["find", "--formula",
                                    refeval.to_text(_sat_formula(probe_rng)), "--json"]),
    ]
    return {"requests": requests, "probe": probe}



# ---------------------------------------------------------------------------
# proof-check

# The pass is laid out like the brute-force one: its latency median falls in
# the middle of the random proofs and their transforms, and its 90th
# percentile among the fixed-point proofs and the large tautologies.
PC_FIXED_POINT_BOUNDS = (4, 6, 8, 10, 12, 16)
PC_TAUT_ATOMS = (8, 10, 12, 14, 15, 16, 16, 17, 17, 18, 19, 20)
# (mode, steps, steps after the deduction transform, steps after strong
# necessitation) of each random finitary proof. Fixed shapes keep the cost
# of a pass the same for every seed; these are the commonest shapes.
PC_RANDOM_SHAPES = (("plain", 6, 18, 16), ("plain", 8, 25, 21),
                    ("plain", 10, 30, 28), ("con", 12, 39, 35)) * 6
PC_MUTANTS = 8


def _opaque_atoms(n, rng) -> list:
    """n distinct formulas that are not negations or conjunctions."""
    out = []
    for k in range(n):
        base = ("atom", f"r{k}")
        pick = rng.randrange(3)
        if pick == 1:
            base = ("K", rng.choice("ab"), base)
        elif pick == 2:
            base = ("P", rng.choice("ab"), rng.choice((F(1, 3), F(1, 2))), base)
        out.append(base)
    rng.shuffle(out)
    return out


def _taut_doc(n, rng) -> dict:
    """One Prop step, (A1 & ... & An) -> Ak, over n opaque atoms."""
    atoms = _opaque_atoms(n, rng)
    conj = atoms[0]
    for a in atoms[1:]:
        conj = ("and", conj, a)
    f = ("imp", conj, rng.choice(atoms))
    return {"mode": "plain", "hypotheses": [],
            "steps": [{"formula": refeval.to_text(f),
                       "just": {"kind": "axiom", "name": "Prop"}}]}


def _mutate(doc, rng):
    """Replace the formula of one axiom or MP step by the atom ff, which no
    schema and no modus ponens produces: the copy must be rejected."""
    doc = json.loads(json.dumps(doc))
    targets = [k for k, s in enumerate(doc["steps"])
               if s["just"]["kind"] in ("axiom", "MP")]
    doc["steps"][rng.choice(targets)]["formula"] = "ff"
    return doc


def build_proof_check(seed, outdir) -> dict:
    from pckfo.parser import proof_to_doc
    from pckfo.proofcheck import deduction_transform, strong_necessitation_transform
    from pckfo.prooflib import (
        fixed_point_proof, group_pair_proof, k_distribution_proof,
        random_finitary_proof,
    )
    accepted = {"exit": 0, "verdict": "accepted"}
    bounded = {"exit": 6, "verdict": "accepted-with-bounded-certificates"}
    rejected = {"exit": 1, "verdict": "rejected"}
    rng = _rng("proof-check", seed)
    docs = []   # (name, doc, expect, known)
    docs.append(("k_distribution", proof_to_doc(k_distribution_proof()), accepted, None))
    docs.append(("group_pair", proof_to_doc(group_pair_proof()), accepted, None))
    for b in PC_FIXED_POINT_BOUNDS:
        docs.append((f"fixed_point-{b}", proof_to_doc(fixed_point_proof(b)), bounded, None))
    for k, n in enumerate(PC_TAUT_ATOMS):
        docs.append((f"taut-{n}-{k}", _taut_doc(n, rng), accepted,
                     "taut-cap" if n > 18 else None))
    for k, (mode, steps, ded_steps, nec_steps) in enumerate(PC_RANDOM_SHAPES):
        while True:
            proof = random_finitary_proof(rng.randrange(1 << 30), mode)
            if len(proof.steps) != steps:
                continue
            ded = deduction_transform(proof, proof.hypotheses[0])
            nec = strong_necessitation_transform(proof, "a")
            if (len(ded.steps), len(nec.steps)) == (ded_steps, nec_steps):
                break
        docs.append((f"random-{k}", proof_to_doc(proof), accepted, None))
        docs.append((f"random-{k}-deduction", proof_to_doc(ded), accepted, None))
        docs.append((f"random-{k}-necessitation", proof_to_doc(nec), accepted, None))
    pool = [d for (name, d, _, _) in docs
            if name.startswith(("random", "k_distribution", "group_pair"))]
    for k in range(PC_MUTANTS):
        docs.append((f"mutant-{k}", _mutate(pool[k], rng), rejected, None))
    requests = []
    for name, doc, expect, known in docs:
        path = _write_json(outdir, f"{name}.json", doc)
        requests.append(_request(name, ["check-proof", "--proof", path, "--json"],
                                 expect, known=known))
    _shuffle("proof-check", requests)

    probe_rng = _rng("proof-check", PROBE_SEED, "probe")
    probe = []
    for name, doc in (
            ("probe-fixed_point-4", proof_to_doc(fixed_point_proof(4))),
            ("probe-group_pair", proof_to_doc(group_pair_proof())),
            ("probe-taut-12", _taut_doc(12, probe_rng)),
            ("probe-random", proof_to_doc(random_finitary_proof(7)))):
        path = _write_json(outdir, f"{name}.json", doc)
        probe.append(_request(name, ["check-proof", "--proof", path, "--json"]))
    return {"requests": requests, "probe": probe}


# ---------------------------------------------------------------------------

_BUILDERS = {"model-check": build_model_check, "brute-force": build_brute_force,
             "proof-check": build_proof_check}


def _encode(x):
    """Manifest JSON: formulas (tuples with Fractions) become lists of
    strings and numbers."""
    if isinstance(x, Fraction):
        return {"fraction": str(x)}
    if isinstance(x, (list, tuple)):
        return [_encode(y) for y in x]
    if isinstance(x, dict):
        return {k: _encode(v) for k, v in x.items()}
    return x


def decode_formula(x):
    if isinstance(x, dict):
        return Fraction(x["fraction"])
    if isinstance(x, list):
        return tuple(decode_formula(y) for y in x)
    return x


def build(workload, seed, outdir) -> dict:
    os.makedirs(outdir, exist_ok=True)
    manifest = _BUILDERS[workload](seed, outdir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest


if __name__ == "__main__":
    name, seed_text, out = sys.argv[1:4]
    manifest = build(name, int(seed_text), out)
    _write_json(out, "manifest.json", _encode(manifest))
