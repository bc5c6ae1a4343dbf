"""Capacity and achievable-rate regions for classical-quantum network channels.

Modules, by layer:

* ``errors``    error types and standard-library-only input checks
* ``qstate``    the matrix rule for states and POVM elements, density matrices, partial trace
* ``entropic``  entropy and information functionals over labeled cq states
* ``channels``  channel models, worked example channels, JSON loading
* ``regions``   half-space rate-region geometry and Fourier-Motzkin projection
* ``network``   finite-dimensional capacity/rate-region computations
* ``bosonic``   closed-form capacities for the free-space bosonic interference channel
* ``codesim``   exact small-blocklength decoder simulation (typical projectors, SRM)
* ``cli``       command-line surface

The package itself imports nothing: a caller imports the submodule it
uses, so the command-line entry point reports flag and JSON-syntax errors
before any numerical library is pulled in, and runs the closed-form
``bosonic`` commands without numpy.
"""

__version__ = "0.1.0"
