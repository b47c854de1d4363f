"""The MINDFUL analytical framework (paper Sections 3-6).

Entry points:

* :mod:`repro.core.socs` — Table 1 database.
* :mod:`repro.core.scaling` — Eq. 1-5 scaling to/beyond 1024 channels.
* :mod:`repro.core.comm_centric` — naive / high-margin OOK designs.
* :mod:`repro.core.qam_design` — advanced-modulation minimum efficiency.
* :mod:`repro.core.comp_centric` — on-implant DNN integration and
  implant/wearable layer reduction.
* :mod:`repro.core.optimizations` — the ChDr/La/Tech/Dense ladder.
"""
