#!/usr/bin/env python3
"""The watchdog's absolute bar: a probe on every step costs under 1.88x the
plain step, 1.15x the committed measurement (EXPERIMENTS "Health-monitor
overhead": 1.62-1.65 measured once the probe rode the round trip,
1.67-1.76 before, 2.21-2.54 before the probe step ran at the lane tier).
Usage: health-overhead-bar.py BENCH_health_overhead_new.json; exits 1 at
or past the bar."""
import json
import sys

BAR = 1.88
records = json.load(open(sys.argv[1]))['records']
ratio = next(r['median_s'] for r in records if r['name'] == 'health_overhead/stride1_over_off')
print(f'health_overhead/stride1_over_off = {ratio:.4f} (bar {BAR})')
if not ratio < BAR:
    print(f'a probe on every step costs {BAR}x the plain step or more', file=sys.stderr)
    sys.exit(1)
