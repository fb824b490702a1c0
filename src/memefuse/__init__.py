"""Bi-modal misogyny-meme classification at desk scale.

Text-graph construction (PMI word-word edges, TF-IDF document-word
edges, symmetric degree normalization), graph-attention and transformer
encoders with exact gradients, a stream-weighting + representation
fusion network, teacher-forced multi-label losses, and dataset-/model-
level voting ensembles with nonparametric significance testing.
"""

__version__ = "0.1.0"

import os

# One BLAS thread per process unless the environment sets one: fold workers
# run side by side, and a threaded BLAS in each oversubscribes the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
