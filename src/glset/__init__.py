"""Surface measures on level sets of functionals of Gaussian models.

The library estimates densities of image measures ``phi mu o G^-1`` by a
Gaussian-divergence formula and by mollified difference quotients, realizes
the surface measure at a level through those densities, and verifies the
integration-by-parts, trace, disintegration and weighted-Hausdorff
identities at desk scale.
"""

from .model import (GaussianModel, build_model, chunk_layout, draw_chunk,
                    endpoint_weights, iter_sample_chunks, render_path, sample, vhat)
from .functionals import (BmEndpoint, Constant, Coordinate, Functional, Linear,
                          Norm2, NumericalFault, Product, RadialClamp,
                          SublevelBump, UserFunctional)
from .calculus import KernelField
from .density import (DensityCurve, DensityJob, Query, default_bandwidth,
                      estimate_density, stream_pass)
from .surface import (HausdorffRecord, IbpRecord, SurfaceMeasureHandle,
                      SurfaceReport, hyperplane_quadrature, ibp_battery,
                      ibp_residuals, positivity_scan, sphere_quadrature,
                      surface_report)
from .disintegration import (BinSums, ConditionalSurfaceRecord,
                             EmpiricalDisintegration,
                             conditional_vs_surface, disintegrate, support_check,
                             verify_disintegration)
from .expressions import (ExpressionError, ExpressionFunctional, GRAMMAR,
                          parse_expression)
from .config import ConfigError, JobSpec, ModelSpec, RunConfig, parse_config, \
    resolve_functional, resolve_model, serialize_config
from .runner import run

__version__ = "0.1.0"

__all__ = [
    "GaussianModel", "build_model", "sample", "vhat",
    "iter_sample_chunks", "chunk_layout", "draw_chunk",
    "render_path", "endpoint_weights",
    "Functional", "UserFunctional", "Constant", "Coordinate", "Linear", "Norm2",
    "BmEndpoint", "Product",
    "RadialClamp", "SublevelBump", "NumericalFault", "KernelField",
    "DensityJob", "DensityCurve", "estimate_density", "default_bandwidth",
    "Query", "stream_pass",
    "SurfaceMeasureHandle", "SurfaceReport", "IbpRecord", "HausdorffRecord",
    "surface_report", "ibp_battery", "ibp_residuals", "positivity_scan",
    "sphere_quadrature", "hyperplane_quadrature",
    "EmpiricalDisintegration", "ConditionalSurfaceRecord", "BinSums", "disintegrate",
    "verify_disintegration", "support_check", "conditional_vs_surface",
    "ExpressionFunctional", "ExpressionError", "parse_expression", "GRAMMAR",
    "RunConfig", "ModelSpec", "JobSpec", "ConfigError", "parse_config",
    "serialize_config", "run", "resolve_model", "resolve_functional",
    "__version__",
]
