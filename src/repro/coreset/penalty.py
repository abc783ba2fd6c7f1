"""The penalized loss of Eq. 6.

    f(x; ξ) = Σ_d w_ξ(d) f(x; d) + λ1 ||x|| + λ2 σ(x)

The L2 term bounds the parameter-space ball (structural risk), keeping
the problem continuous-and-bounded so the coreset guarantees apply and
the coreset stays compact.  σ(x) is the problem-dependent penalty; for
the BEV driving model the paper uses the entropy of the losses observed
across driving commands so the model "effectively addresses all driving
commands without introducing any bias".  Concretely we penalize the
*imbalance* of per-command losses — the KL divergence of the normalized
per-command loss distribution from uniform, i.e. ``log K − H(q)`` — so
minimizing the penalty equalizes losses across commands (a literally
added raw entropy would reward concentrating all loss on one command,
the opposite of the stated intent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.model import N_COMMANDS

__all__ = ["PenaltyConfig", "command_loss_entropy", "penalized_loss"]


@dataclass(frozen=True)
class PenaltyConfig:
    """Coefficients of the Eq. 6 penalty terms."""

    lambda_l2: float = 1e-4
    lambda_entropy: float = 0.05

    @property
    def enabled(self) -> bool:
        """Whether any penalty term is active."""
        return self.lambda_l2 > 0 or self.lambda_entropy > 0


def command_loss_entropy(per_sample_losses: np.ndarray, commands: np.ndarray) -> float:
    """Imbalance of mean losses across commands: ``log K - H(q)``.

    ``q`` is the normalized vector of per-command mean losses over the
    commands present; the value is 0 when losses are perfectly balanced
    and grows as loss concentrates on few commands.  Commands absent
    from the batch are excluded (their loss is unobserved, not zero).
    """
    per_sample_losses = np.asarray(per_sample_losses, dtype=float)
    commands = np.asarray(commands)
    means = []
    for cmd in range(N_COMMANDS):
        mask = commands == cmd
        if mask.any():
            means.append(per_sample_losses[mask].mean())
    if len(means) <= 1:
        return 0.0
    q = np.asarray(means)
    total = q.sum()
    if total <= 0:
        return 0.0
    q = q / total
    entropy = float(-(q * np.log(np.clip(q, 1e-12, None))).sum())
    return float(np.log(len(means)) - entropy)


def penalized_loss(
    flat_params: np.ndarray,
    per_sample_losses: np.ndarray,
    commands: np.ndarray,
    weights: np.ndarray,
    config: PenaltyConfig,
) -> float:
    """Eq. 6: weighted empirical loss plus L2 and command-entropy terms.

    ``flat_params`` is the scored model's flat float32 parameter vector
    (the L2 term's ``x``).
    """
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    empirical = float(np.asarray(per_sample_losses) @ (weights / total))
    value = empirical
    if config.lambda_l2 > 0:
        value += config.lambda_l2 * float(np.linalg.norm(flat_params))
    if config.lambda_entropy > 0:
        value += config.lambda_entropy * command_loss_entropy(per_sample_losses, commands)
    return value
