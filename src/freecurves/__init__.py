"""Exact combinatorics of splitting types for rational curves on varieties.

Modules by concern; import each name from the module that defines it:

- ``splitting``: bundles on the projective line, specialization order,
  slope panels.
- ``nodal``: bundles on a two-component nodal curve, degree bounds,
  admissible smoothings, sharpness witnesses.
- ``stability``: glue-and-smooth balancing at rank <= 5.
- ``variety``: lattice models of nef cones with filtration chambers,
  expected slope panels, certified liberation bounds.
- ``counting``: lattice-point counting functions and the liberated ratio.
- ``modelio``: model files and the bundled fixtures.
- ``errors``: the domain error hierarchy, the exact input checks and
  ``Value``, the frozen base of every value class.
- ``cli``: the ``freecurves`` command.

Every value is an exact integer or rational; nothing here rounds.
"""

__version__ = "0.1.0"
