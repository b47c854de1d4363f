"""MINDFUL reproduction: system-level design analysis for implantable BCIs.

A faithful, substrate-complete reimplementation of *MINDFUL: Safe,
Implantable, Large-Scale Brain-Computer Interfaces from a System-Level
Design Perspective* (MICRO 2025).  See DESIGN.md for the system inventory
and EXPERIMENTS.md for the paper-vs-measured record.

Quick start::

    from repro.core.scaling import scale_to_standard
    from repro.core.socs import wireless_socs
    from repro.thermal.budget import assess

    bisc = scale_to_standard(wireless_socs()[0])
    print(assess(bisc.power_w, bisc.area_m2).describe())
"""

__version__ = "1.0.0"
