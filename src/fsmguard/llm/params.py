"""Generation-control parameters and sweep grids."""
from __future__ import annotations

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class GenerationParams:
    """Inference-time controls over output randomness and length."""

    temperature: float = 0.0
    top_p: float = 1.0
    presence_penalty: float = 0.0
    frequency_penalty: float = 0.0
    max_tokens: int = 2048

    def __post_init__(self) -> None:
        if not 0.0 <= self.temperature <= 1.0:
            raise ValueError(f"temperature {self.temperature} outside [0, 1]")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p {self.top_p} outside (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")

    def to_json(self) -> dict:
        return asdict(self)


def temperature_grid() -> tuple[GenerationParams, ...]:
    """The standard sweep: temperature 0.0 to 1.0 inclusive in steps of 0.1
    (eleven points)."""
    return tuple(GenerationParams(temperature=i / 10) for i in range(11))
