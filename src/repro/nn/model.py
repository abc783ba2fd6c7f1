"""The BEV-based driving decision model.

A compact stand-in for the "Learning by Cheating" privileged agent the
paper trains: the input is a bird's-eye-view occupancy tensor plus a
high-level navigation command, and the output is the next few waypoints
the vehicle should follow, expressed as (dx, dy) offsets in the
vehicle's frame.

Like CIL/LBC, the network is *command-branched*: a shared trunk encodes
the BEV and a separate linear head per command produces waypoints, so
"turn left" and "go straight" never compete for the same output weights.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d, Flatten, Linear, Module, ReLU, Sequential
from repro.nn.params import Parameter

__all__ = ["WaypointNet", "make_driving_model", "N_COMMANDS", "COMMAND_NAMES"]

#: High-level commands from the navigation service, as in CARLA/CIL.
COMMAND_NAMES = ("follow", "left", "right", "straight")
N_COMMANDS = len(COMMAND_NAMES)


class WaypointNet(Module):
    """Command-branched waypoint predictor.

    Parameters
    ----------
    bev_shape:
        ``(channels, height, width)`` of the input BEV tensor.
    n_waypoints:
        Number of future waypoints to predict; output dim is ``2 * n``.
    hidden:
        Trunk width.
    use_conv:
        When true the trunk starts with a 3x3 convolution (closer to the
        paper's CNN encoder); when false the BEV is flattened straight
        into an MLP, which is much faster on CPU and behaves identically
        for the algorithmic questions studied here.
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        bev_shape: tuple[int, int, int],
        n_waypoints: int,
        hidden: int,
        rng: np.random.Generator,
        use_conv: bool = False,
    ):
        channels, height, width = bev_shape
        self.bev_shape = bev_shape
        self.n_waypoints = n_waypoints
        self.use_conv = use_conv
        if use_conv:
            conv_out = 8 * (height - 2) * (width - 2)
            self.trunk = Sequential(
                Conv2d(channels, 8, 3, rng),
                ReLU(),
                Flatten(),
                Linear(conv_out, hidden, rng),
                ReLU(),
            )
        else:
            self.trunk = Sequential(
                Flatten(),
                Linear(channels * height * width, hidden, rng),
                ReLU(),
                Linear(hidden, hidden, rng),
                ReLU(),
            )
        self.heads = [Linear(hidden, 2 * n_waypoints, rng) for _ in range(N_COMMANDS)]
        self._features: np.ndarray | None = None
        self._commands: np.ndarray | None = None

    # Sequential.forward has a single input; WaypointNet takes (bev, cmd),
    # so it overrides __call__-style usage with an explicit signature.
    def forward(self, bev: np.ndarray, commands: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """Predict waypoints.

        Parameters
        ----------
        bev:
            ``(batch, channels, height, width)`` float array.
        commands:
            ``(batch,)`` integer array in ``[0, N_COMMANDS)``.
        """
        commands = self._check_commands(bev, commands)
        # ``copy=False``: the first trunk layer defensively copies any
        # writeable input it must cache (see Linear.forward), so an
        # unconditional astype copy here would just double the work.
        features = self.trunk.forward(bev.astype(np.float32, copy=False))
        out = self._route_heads(features, commands, train=True)
        self._features = features
        # Backward re-reads the command vector after control returned to
        # the caller; copy writeable inputs so buffer reuse cannot
        # silently reroute head gradients (same contract as Linear).
        self._commands = commands.copy() if commands.flags.writeable else commands
        return out

    def infer(self, bev: np.ndarray, commands: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """:meth:`forward` without caching anything for a backward pass.

        The same op sequence, so predictions are bit-identical; used by
        evaluation and parameter probing.
        """
        commands = self._check_commands(bev, commands)
        features = self.trunk.infer(bev.astype(np.float32, copy=False))
        return self._route_heads(features, commands, train=False)

    @staticmethod
    def _check_commands(bev: np.ndarray, commands: np.ndarray) -> np.ndarray:
        commands = np.asarray(commands)
        if commands.ndim != 1 or commands.shape[0] != bev.shape[0]:
            raise ValueError("commands must be a (batch,) vector matching bev")
        return commands

    def _route_heads(self, features: np.ndarray, commands: np.ndarray, train: bool) -> np.ndarray:
        """Each command's head applied to its rows of ``features``."""
        out = np.zeros((features.shape[0], 2 * self.n_waypoints), dtype=np.float32)
        for cmd in range(N_COMMANDS):
            mask = commands == cmd
            if mask.any():
                head = self.heads[cmd]
                rows = features[mask]
                out[mask] = head.forward(rows) if train else head.infer(rows)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """Route head gradients per command, then back through the trunk."""
        if self._features is None or self._commands is None:
            raise RuntimeError("backward before forward")
        grad_features = np.zeros_like(self._features)
        for cmd in range(N_COMMANDS):
            mask = self._commands == cmd
            if mask.any():
                grad_features[mask] = self.heads[cmd].backward(grad_out[mask])
        return self.trunk.backward(grad_features)

    def parameters(self) -> list[Parameter]:
        """Trunk parameters followed by each command head's."""
        params = self.trunk.parameters()
        for head in self.heads:
            params.extend(head.parameters())
        return params


def make_driving_model(
    bev_shape: tuple[int, int, int],
    n_waypoints: int,
    hidden: int,
    seed: int,
    use_conv: bool = False,
) -> WaypointNet:
    """Build a :class:`WaypointNet` with a deterministic initialization.

    All vehicles call this with the *same* seed, matching the paper's
    assumption that models share one initialization.
    """
    rng = np.random.default_rng(seed)
    return WaypointNet(bev_shape, n_waypoints, hidden, rng, use_conv=use_conv)
