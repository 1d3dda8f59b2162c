#!/usr/bin/env python3
"""The watchdog's absolute bar: a probe on every step costs under 2.0x the
plain step (EXPERIMENTS "Health-monitor overhead": 1.69-1.76 measured,
2.21-2.54 before the probe step ran at the lane tier). Usage:
health-overhead-bar.py BENCH_health_overhead_new.json; exits 1 past the bar."""
import json
import sys

BAR = 2.0
records = json.load(open(sys.argv[1]))['records']
ratio = next(r['median_s'] for r in records if r['name'] == 'health_overhead/stride1_over_off')
print(f'health_overhead/stride1_over_off = {ratio:.4f} (bar {BAR})')
if not ratio < BAR:
    print('a probe on every step costs 2x the plain step or more', file=sys.stderr)
    sys.exit(1)
