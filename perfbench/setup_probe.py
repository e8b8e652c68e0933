"""Times the program's set-up as `rail run` pays it: importing railsim.cli
(and with it numpy and scipy) and loading the config. Prints seconds.

    python3 perfbench/setup_probe.py CONFIG.json
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from railsim import cli  # noqa: E402

cli.ExperimentConfig.from_json_file(sys.argv[1])
print(time.perf_counter() - start)
