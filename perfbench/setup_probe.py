"""Time one fresh process's set-up; print it in seconds, then the yardstick.

Set-up is importing capflow (with numpy and scipy), ``config.load_config``
on configs/tc1.cfg and ``stepping.initial_state`` on the workload's grid.
Right after it the process times 15 yardstick bursts (calibration.py) and
prints their median in ms, so the caller can scale set-up to the reference
speed.

Usage: python3 perfbench/setup_probe.py CHECKOUT_ROOT N1 N3
"""

import statistics
import sys
import time

t0 = time.perf_counter()
root, n1, n3 = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path.insert(0, f"{root}/src")

from dataclasses import replace                                     # noqa: E402

from capflow.config import load_config, num_params                  # noqa: E402
from capflow.stepping import initial_state                          # noqa: E402

cfg = replace(load_config(f"{root}/configs/tc1.cfg"), N1=n1, N3=n3)
initial_state(cfg.radius, cfg.init_height, num_params(cfg))
setup_s = time.perf_counter() - t0

from calibration import Yardstick                                   # noqa: E402

yardstick = Yardstick()
print(repr(setup_s), repr(statistics.median(yardstick.burst() for _ in range(15))))
