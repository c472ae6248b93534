#!/usr/bin/env python3
"""Event timeline of the self-differencing monitor under blinding.

Prints the gate-by-gate classification for an isolated bright pulse and
for a continuous blinding train: the isolated avalanche produces a rise
and, one gate later, the delayed-copy fall; the train collapses into
raw-comparator clicks with a silent difference output, the blinded
signature.
"""

from dataclasses import replace

import numpy as np

from bncsim.attack import detect_arm, railed_amplitudes
from bncsim.selfdiff import SdGateEvent, sd_event_codes
from bncsim.signal_model import DetectorParams

BRIGHT_MU = 500.0


def timeline(title, bright, params, rng):
    """Run one gate stream; ``bright`` marks the gates that carry a pulse.

    The bright gates draw their carriers in one kernel call; without dark
    counts the other gates stay empty.
    """
    carriers = np.zeros(bright.size, dtype=np.int64)
    carriers[bright] = detect_arm(BRIGHT_MU * params.qe, int(bright.sum()), params.dcp_apd1, rng).k
    codes = sd_event_codes(railed_amplitudes(carriers, params, rng), params)
    print(f"\n{title}")
    print(f"{'gate':>5} {'carriers':>8}  event")
    for gate, (k, code) in enumerate(zip(carriers, codes)):
        print(f"{gate:>5} {k:>8}  {SdGateEvent(code).name.lower()}")


def main() -> None:
    params = replace(DetectorParams.default(), dcp_apd1=0.0, dcp_apd2=0.0)
    rng = np.random.default_rng(42)

    isolated = np.zeros(6, dtype=bool)
    isolated[2] = True
    timeline("isolated avalanche", isolated, params, rng)

    train = np.zeros(13, dtype=bool)
    train[1:11] = True
    timeline("blinding train (10 bright gates)", train, params, rng)


if __name__ == "__main__":
    main()
