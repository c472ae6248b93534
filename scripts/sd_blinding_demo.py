#!/usr/bin/env python3
"""Event timeline of the self-differencing monitor under blinding.

Prints each gate's railed level and classification for an isolated
bright pulse and for a continuous blinding train: the isolated avalanche
produces a rise and, one gate later, the delayed-copy fall; the train
collapses into raw-comparator clicks with a silent difference output,
the blinded signature.
"""

from dataclasses import replace

import numpy as np

from bncsim.attack import RAILED, arm_law
from bncsim.selfdiff import SdGateEvent, sd_event_codes
from bncsim.signal_model import DetectorParams

BRIGHT_MU = 500.0


def timeline(title, bright, params):
    """Run one gate stream; ``bright`` marks the gates that carry a pulse.

    A bright gate rails and reads ``t_strong``; without dark counts the
    other gates stay empty and read 0.
    """
    levels = bright * params.t_strong
    codes = sd_event_codes(levels, params)
    print(f"\n{title}")
    print(f"{'gate':>5} {'level':>8}  event")
    for gate, (level, code) in enumerate(zip(levels, codes)):
        print(f"{gate:>5} {level:>8.4f}  {SdGateEvent(code).name.lower()}")


def main() -> None:
    params = replace(DetectorParams.default(), dcp_apd1=0.0, dcp_apd2=0.0)
    # the arm law at the bright pulse's mean puts every avalanche on the rail
    assert arm_law(BRIGHT_MU * params.qe, params.dcp_apd1, params).state[RAILED] == 1.0

    isolated = np.zeros(6, dtype=bool)
    isolated[2] = True
    timeline("isolated avalanche", isolated, params)

    train = np.zeros(13, dtype=bool)
    train[1:11] = True
    timeline("blinding train (10 bright gates)", train, params)


if __name__ == "__main__":
    main()
