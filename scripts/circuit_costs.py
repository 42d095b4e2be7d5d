#!/usr/bin/env python3
"""Print constraint counts and gas-proxy costs for the test corpus across
backends and hashing settings, with the constraints of each circuit by the
shape classes `ConstraintSystem.check` tests in bulk (booleanity, and, xor,
or) or one by one (other).

    python scripts/circuit_costs.py
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from veil.chain import verification_gas
from veil.compiler import BuildSettings, compile_source
from veil.r1cs import classify
from veil.source import SourceFile

CONTRACTS = ("token", "reveal", "privif", "nested", "zeroinit", "shortcircuit")
DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "contracts")


def main():
    settings = [
        ("dummy", BuildSettings()),
        ("dummy+hash", BuildSettings(hash_threshold=0)),
        ("dh-arx", BuildSettings(crypto_backend="dh-arx", hash_threshold=999)),
    ]
    print(f"{'contract':<14}{'backend':<13}{'circuit':<22}"
          f"{'constraints':>12}{'pub slots':>10}{'gas':>9}"
          f"{'bool':>8}{'and':>8}{'xor':>8}{'or':>8}{'other':>8}")
    for name in CONTRACTS:
        source = SourceFile.load(os.path.join(DIR, f"{name}.zkay"))
        for label, s in settings:
            artifact = compile_source(source, s)
            for cname, lowered in sorted(artifact.lowered.items()):
                bits, gates, other = classify(lowered.cs.constraints,
                                              lowered.field.p)
                classes = [len(bits)] + [len(xs) for xs, _, _ in
                                         gates.values()] + [len(other)]
                print(f"{name:<14}{label:<13}{cname:<22}"
                      f"{len(lowered.cs.constraints):>12}"
                      f"{lowered.in_total + lowered.out_total:>10}"
                      f"{verification_gas(artifact.keys[cname].verifier):>9}"
                      + "".join(f"{n:>8}" for n in classes))


if __name__ == "__main__":
    main()
