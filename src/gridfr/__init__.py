"""gridfr: reconstruction of functions from non-uniform Fourier samples.

Three estimators over a shared plan/synthesis pipeline — convolutional
gridding, frame approximation (truncated pseudo-inverse of the
cross-Gram), and frame-theoretic convolutional gridding with a banded
quadrature matrix — plus raster generators, test scenes, metrics and an
experiment harness with pinned presets.  Warnings go to the ``gridfr``
logger, which the CLI prints to stderr and a library leaves silent.
"""

import logging

from .errors import ConfigError, FormatError, GridfrError, NumericalError
from .harness import (ExperimentConfig, MetricsReport, error_maps, l2_relative,
                      linf_error, preset_config, psnr, run_experiment,
                      run_preset, run_sweep, rsweep_config, sweep_config)
from .numerics import (PinvInfo, band_mask, band_pairs, default_band,
                       density_weights, pseudo_inverse)
from .raster import (Raster, asterisk, jittered_grid, load_raster,
                     rescale_to_box, sas_wedge, save_raster)
from .recon import (ImageGrid, ReconPlan, build_omega, build_plan, build_psi,
                    coefficients, default_grid, default_modes, load_image_csv,
                    reconstruct, reference_image, save_image_csv, save_pgm,
                    scene_image, synthesize, windowed_coefficients,
                    with_band)
from .sampling import (SampleSet, Scene, add_noise, analytic_coeffs,
                       boxcar_scene, grid_image_scene, load_samples,
                       paper_test_scene, quadrature_coeffs, save_samples,
                       scene_eval, sine_scene, trig_poly_scene)
from .window import (WindowSpec, gaussian_window, spectrum_factor,
                     truncation_radius, window_coefficient)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
