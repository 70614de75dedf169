"""collatzlab: a computational laboratory for the 3x+1 problem and friends.

Its modules cover the iteration engine (maps), the exact T-step kernel
(kernel), trajectory statistics and verification sweeps (stats), the
coefficient stopping time (coeffstop), cycle algebra and cycle-length bounds
(cycles), inverse iteration trees (trees), the 2-adic conjugacy permutation
(twoadic), continued fractions of log2 3 (cf), and FRACTRAN machines
(fractran).  Package data: JSON Schemas for the reports (schemas/) and
FRACTRAN program files (programs/).
"""

__version__ = "0.1.0"
