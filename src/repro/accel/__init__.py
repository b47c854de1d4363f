"""Weight-stationary DNN accelerator model (paper Section 5.3, Fig. 9).

The paper bounds on-implant DNN power from below by counting the MAC units
(``#MAChw``) a layer schedule needs to meet the real-time deadline, then
charging each unit its post-synthesis power.  This package implements:

* the technology library with the paper's published MAC synthesis points
  (45 nm: tMAC = 2 ns / PMAC = 0.05 mW; 12 nm: tMAC = 1 ns /
  PMAC = 0.026 mW; 130 nm for the Fig. 9 accelerator),
* the schedule solvers of Eq. 11-12 (non-pipelined) and Eq. 14-15
  (pipelined) that minimize ``#MAChw``,
* the component-level accelerator power model reproducing the Fig. 9
  design-point study (PE power fraction 25 % -> ~96 %), and
* the second-order memory and interconnect models that check the Eq. 13
  bound's headroom.
"""
