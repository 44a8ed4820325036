"""m-bonacci van der Corput/Halton sequences, Rauzy fractal geometry,
and discrepancy measurement.

Submodules:
    numeration   greedy digit expansions over the m-bonacci basis
    spectral     dominant root, incidence matrix, lattice coordinates and the
                 contraction, read from the system's root-power pairs
    rauzy        fixed-point words, fractal clouds, tiling checks
    rotation     sequence values, level-k intervals and subtile addresses, local discrepancies
    discrepancy  exact star discrepancy, decay fits, box dimensions
    textio       CSV text: the fixed-digit row writer and the vectorised point reader
    cli          command-line interface
    verify       the paper's identity checks: `mbonacci verify` and the acceptance gate
"""

__version__ = "0.1.0"
