"""LbChat trainer — Algorithm 2 on the event engine.

Each vehicle trains continuously and, when idle, ranks the idle
neighbors in radio range by the Eq. 5 priority score computed from
shared routes, then runs the full pairwise chat protocol with the best
one.  Both participants are busy for the chat's simulated duration.

Training itself runs through :class:`~repro.core.trainer_base.
TrainerBase`'s fleet engine whenever the fleet can batch: all vehicles'
train timers fire at the same instants (busy state gates chats, never
training), so the fleet takes one batched step per instant, and every
chat-side operation here — compression, Eq. 8 aggregation, coreset
absorption — works on zero-copy views into the shared parameter bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chat import pairwise_chat
from repro.core.selection import select_priority, select_random
from repro.core.trainer_base import TrainerBase, TrainerConfig

__all__ = ["LbChatConfig", "LbChatTrainer"]


@dataclass
class LbChatConfig(TrainerConfig):
    """LbChat-specific knobs on top of the shared timeline config."""

    #: Anticipated combined relative model size when *estimating* how
    #: many bytes a chat will move (the actual value comes from Eq. 7).
    anticipated_psi_total: float = 0.6
    #: Ablation switches (§IV-F): fixed equal compression instead of
    #: Eq. 7, and plain averaging instead of Eq. 8.
    equal_compression: bool = False
    mean_aggregation: bool = False
    #: §IV-G: share coresets only, never models (the SCO variant).
    coreset_only: bool = False
    #: Disable Eq. 5 route-based prioritization (extra ablation): pick a
    #: random idle neighbor instead of the best-scoring one.
    prioritize_neighbors: bool = True


class LbChatTrainer(TrainerBase):
    """The paper's method; ablation variants via :class:`LbChatConfig`."""

    name = "LbChat"

    def __init__(self, nodes, traces, validation, config: LbChatConfig | None = None):
        super().__init__(nodes, traces, validation, config or LbChatConfig())
        self.config: LbChatConfig
        from repro.core.chatlog import ChatLog

        self.chat_log = ChatLog(max_records=self.config.chat_log_budget)

    def on_scan(self, i: int) -> None:
        """Pick the best idle neighbor (Eq. 5) and run a chat."""
        j = self._pick_partner(i)
        if j is None:
            return
        self._chat(i, j)

    # -- partner selection (Eq. 5) ------------------------------------------------

    def _pick_partner(self, i: int) -> int | None:
        candidates = self.idle_neighbors(i)
        if not candidates:
            return None
        select = select_priority if self.config.prioritize_neighbors else select_random
        return select(self, i, candidates)

    # -- the chat itself ------------------------------------------------------------

    def _chat(self, i: int, j: int) -> None:
        now = self.sim.now
        estimate = self.contact_estimate(i, j, self.estimate_chat_bytes(i, j, 1.0))
        contact_deadline = now + max(estimate.contact_duration, 1.0)
        outcome = pairwise_chat(
            self.nodes[i],
            self.nodes[j],
            self.pair_distance_fn(i, j),
            start_time=now,
            contact_deadline=contact_deadline,
            wireless=self.wireless,
            channel=self.config.channel,
            time_budget=self.config.time_budget,
            lambda_c=self.config.lambda_c,
            equal_compression=self.config.equal_compression,
            mean_aggregation=self.config.mean_aggregation,
            coreset_only=self.config.coreset_only,
            expected_goodput=estimate.mean_goodput_factor,
        )
        self.occupy(i, outcome.duration)
        self.occupy(j, outcome.duration)
        self.note_chat(i, j)
        self.counters.add("chats")
        from repro.core.chatlog import ChatRecord

        self.chat_log.append(
            ChatRecord.from_outcome(
                now, self.nodes[i].node_id, self.nodes[j].node_id, outcome
            )
        )
        self.counters.add("chat_seconds", outcome.duration)
        if outcome.i_attempted:
            self.receive_rate.observe(self.nodes[i].node_id, outcome.i_received_model)
        if outcome.j_attempted:
            self.receive_rate.observe(self.nodes[j].node_id, outcome.j_received_model)
        if outcome.coresets_exchanged:
            self.counters.add("coresets_exchanged", 2)
            self.counters.add(
                "frames_absorbed", outcome.absorbed_by_i + outcome.absorbed_by_j
            )

    # -- checkpointing ------------------------------------------------------------

    def extra_state(self) -> dict:
        from dataclasses import asdict

        return {
            "chat_log": [asdict(record) for record in self.chat_log.records],
            "chat_log_dropped": self.chat_log.dropped,
        }

    def restore_extra(self, state) -> None:
        from repro.core.chatlog import ChatLog, ChatRecord

        log = ChatLog(max_records=self.config.chat_log_budget)
        for record in state["chat_log"]:
            log.append(ChatRecord(**record))
        log.dropped = int(state.get("chat_log_dropped", 0))
        self.chat_log = log
