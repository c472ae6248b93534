#!/usr/bin/env python3
"""Side-by-side attack outcome on the two receiver designs.

For each flux, runs the intercept-and-resend attack against
(a) a conventional two-APD receiver (double clicks discarded) and
(b) the balanced noise-cancelling receiver with the blinding monitor,
and prints the sifted error rate plus each design's telltale.  The
conventional receiver betrays the attack at every flux: a 25% error
rate at single-photon level, and a flood of discarded double clicks
once the flux is high.  The noise-cancelling receiver shows neither
(the simultaneous avalanches cancel silently); only its monitor output
still flags the attempt.
"""

import argparse

import numpy as np

from bncsim.attack import AttackConfig, DetectorKind, run_attack
from bncsim.signal_model import DetectorParams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gates", type=int, default=300_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--flux", default="0.1,1,10,30,100,500", help="comma-separated photons/pulse"
    )
    args = parser.parse_args()
    params = DetectorParams.default()

    print(f"{'flux':>8} {'two-APD qber':>13} {'doubles/gate':>13} "
          f"{'balanced qber':>14} {'monitor flags/case-C gate':>26}")
    for i, mu in enumerate(float(x) for x in args.flux.split(",")):
        two = run_attack(
            AttackConfig(
                n_pulses=args.gates, resend_mu=mu, detector=DetectorKind.BASELINE_TWO_APD
            ),
            params,
            np.random.SeedSequence(args.seed, spawn_key=(i, 0)),
        )
        bal = run_attack(
            AttackConfig(n_pulses=args.gates, resend_mu=mu),
            params,
            np.random.SeedSequence(args.seed, spawn_key=(i, 1)),
        )
        flagged = bal.casec_blind / bal.casec_gates if bal.casec_gates else float("nan")
        doubles = two.doubles / two.gates
        print(
            f"{mu:>8g} {two.qber:>13.4f} {doubles:>13.4f} "
            f"{bal.qber:>14.4f} {flagged:>26.4f}"
        )


if __name__ == "__main__":
    main()
