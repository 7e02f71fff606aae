"""Configuration dataclass for the DIFFODE model."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DiffODEConfig"]


@dataclass
class DiffODEConfig:
    """Hyper-parameters of :class:`repro.core.DiffODE`.

    Defaults follow Section IV-A4 of the paper (classification settings);
    the experiment registry overrides per task/scale.
    """

    input_dim: int = 1
    #: latent dimension ``d`` = dimension of the DHS ``S_t``
    latent_dim: int = 16
    #: hidden width of the phi / f_r / readout MLPs (paper: 32)
    hidden_dim: int = 32
    #: dimension of the HiPPO memory ``c_t``
    hippo_dim: int = 16
    #: dimension of the information state ``r_t`` (paper: = DHS dim)
    info_dim: int = 16
    #: attention heads for the DHS (Fig. 6 ablation; paper default 1)
    num_heads: int = 1
    #: how ``p_t`` is recovered from ``S_t``: max_hoyer | min_norm | ada_h
    p_solver: str = "max_hoyer"
    #: use the HiPPO output system of Eq. 36 (Fig. 5 ablation)
    use_hippo: bool = True
    #: use the DHS attention; False = the "w/o Attn" ablation
    use_attention: bool = True
    #: input network psi: "gru" (paper default) or "mlp" (Fig. 5 ablation)
    encoder: str = "gru"
    #: ODE solver (paper: implicit Adams)
    method: str = "implicit_adams"
    #: ODE integration step on the normalized [0, 1] time axis; the
    #: number of readout grid points is round(1/step_size) + 1.  For the
    #: adaptive ``dopri5`` method this only sets the readout-grid density
    #: (the solver controls its own step via ``rtol``/``atol``)
    step_size: float = 0.05
    #: relative error tolerance for adaptive solvers
    rtol: float = 1e-5
    #: absolute error tolerance for adaptive solvers
    atol: float = 1e-7
    #: differentiate the ODE solve with the continuous adjoint (O(state)
    #: memory) instead of backprop through the solver; gradients are
    #: tolerance-bounded rather than exact w.r.t. the discrete solve
    adjoint: bool = False
    #: length of the position-indexed DHS parameters ``h``/``h2``: the
    #: most observations a series may have (``DHSDynamics.bind`` and the
    #: streaming session raise past it)
    max_len: int = 512
    #: classification classes (None for regression tasks)
    num_classes: int | None = None
    #: regression output dimension (None for classification tasks)
    out_dim: int | None = None
    #: ridge regularizer for the Gram matrix inverse
    ridge: float = 1e-6
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_classes is None and self.out_dim is None:
            raise ValueError("set num_classes (classification) or out_dim "
                             "(interpolation/extrapolation)")
        if self.latent_dim % self.num_heads != 0:
            raise ValueError("latent_dim must be divisible by num_heads")
