"""Arnold gas: a deterministic gas model whose pair collisions are cat maps.

Modules:
  maps      -- cat-map and collision arithmetic on the unit 2-torus
  tree      -- staged collision-tree combinatorics and dilation factors
  gas       -- full N-particle gas with randomized pairwise collisions
  spectral  -- Fourier density components and fluctuation-growth exponents
  kinetics  -- kinetic-theory estimates (particle count, mean free time)
  verify    -- self-check suite and the oracles the acceptance tests share
  cli       -- command-line front end with reproducible file output
"""

__version__ = "0.13.0"
