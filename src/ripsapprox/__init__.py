"""Approximate Rips towers over shifted dyadic lattices.

Builds sparse approximations of Rips filtrations as event streams
(inclusions and vertex contractions over a geometric scale ladder),
computes persistence barcodes for both the approximation and the exact
filtration, and certifies the multiplicative approximation quality.
"""

from .geometry import PointCloud, distance, closest_pair, diameter, spread
from .lattice import Face, GridFrame, build_frames, shift_signs, locate, vertex_map_g, face_map_g
from .cubical import CubicalComplex, active_vertices, is_spanned, spanned_faces, closure
from .barycentric import FlagSimplex, SimplicialComplex, build_order_complex, simplicial_image
from .tower import (
    Scale, Include, Contract, EventStream, Snapshot,
    GuardrailExceeded, MalformedStream,
    build_simplicial_tower, build_cubical_tower, replay, snapshots, survival_experiment,
    active_inclusion_bound, cubical_cell_bound, simplicial_inclusion_bound,
)
from .persistence import Barcode, rips_filtration, rips_barcode, reduce, betti, tower_barcode, coning_oracle
from .diagram import multiplicative_bottleneck, certify_approximation, Certificate

__version__ = "0.1.0"
