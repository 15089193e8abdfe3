"""Run the full statistical verification battery on the stock models.

Prints one PASS/FAIL line per check and exits nonzero if anything fails.
"""

import argparse
import sys

from crsm.carrier import Carrier
from crsm.setfun import Capacity
from crsm.tdf import SpectralTDF
from crsm.transforms import exchangeable_capacity, torus_storm_capacity
from crsm.verify import verify_model

import numpy as np


def stock_models():
    c2 = Carrier(("a", "b"))
    yield "theta2", Capacity(c2, [0.0, 1.0, 1.0, 1.5])
    yield "full-dependence", exchangeable_capacity(c2, [(1.0, 1.0)])
    # complete randomness: the additive capacity of mu = (0.6, 0.4)
    yield "lebesgue", Capacity(c2, atoms=([1, 2], [0.6, 0.4]))
    yield "torus-storm", torus_storm_capacity(4, [([0, 1], 1.0)])
    c3 = Carrier(("a", "b", "c"))
    atoms = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.5], [0.0, 0.4, 1.0]])
    yield "spectral", SpectralTDF(c3, np.array([0.5, 0.3, 0.2]), atoms)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default=None,
                   help="run only this model (default: all)")
    args = p.parse_args(argv)

    failed = 0
    for name, model in stock_models():
        if args.model is not None and name != args.model:
            continue
        print(f"== {name} ==")
        checks = verify_model(model, samples=args.samples, seed=args.seed)
        for c in checks:
            print("  " + c.line())
            failed += not c.passed
    if failed:
        print(f"{failed} check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
