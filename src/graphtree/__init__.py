"""Graphon-based hierarchical graph clustering.

Core pieces: step graphons (graphon), exact mergeons and cluster trees
(mergeon), W-random graph sampling (sampling), neighborhood smoothing
estimators (smoothing), single linkage (linkage), file formats (graph_io),
and the experiment harness (experiments).

Each public name is declared once, in its module's __all__; the package
exports every such name, plus ValidationError and __version__.
"""

from . import experiments, graph_io, graphon, linkage, mergeon, sampling, smoothing
from .errors import ValidationError
from .experiments import *
from .graph_io import *
from .graphon import *
from .linkage import *
from .mergeon import *
from .sampling import *
from .smoothing import *

__version__ = "0.1.0"

__all__ = ["ValidationError", "__version__"] + [
    name
    for mod in (graphon, mergeon, sampling, smoothing, linkage, graph_io, experiments)
    for name in mod.__all__
]
