"""Byzantine server behaviours and scripted adversaries.

The paper's fault model lets up to ``f`` servers "behave arbitrarily".
:mod:`repro.byzantine.behaviors` provides reusable strategies covering the
deviations the paper names explicitly (wrong values, wrong timestamps, no
reply, multiple replies, stale data) and :mod:`repro.byzantine.scenarios`
scripts the exact adversarial executions of Theorems 3, 5 and 6.

The package imports neither module: a fleet without Byzantine entries
never loads them.
"""
