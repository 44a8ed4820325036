"""m-bonacci van der Corput/Halton sequences, Rauzy fractal geometry,
and discrepancy measurement.

Submodules:
    numeration   greedy digit expansions over the m-bonacci basis
    spectral     dominant root, incidence matrix, lattice coordinates
    rauzy        fixed-point words, fractal clouds, tiling checks
    rotation     sequence values, level-k intervals and subtile addresses, local discrepancies
    discrepancy  exact star discrepancy, decay fits, box dimensions
    textio       the one CSV writer: fixed-digit rows streamed in chunks
    cli          command-line interface
    verify       the paper's identity checks: `mbonacci verify` and the acceptance gate
"""

__version__ = "0.1.0"
