"""Population-scale closed-loop fleet engine.

Tens of thousands of concurrent closed-loop BCI sessions simulated as
batched NumPy state, grouped into cohorts (per-cohort decoder family,
drop rate, and nonstationarity schedule), with fleet-level dashboard
artifacts instead of single-session CSVs.  A 1-session cohort is
bit-exact against the single-session oracle
:func:`repro.simulate.cursor_task.run_closed_loop_session`.
"""
