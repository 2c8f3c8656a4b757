"""Masked-diffusion vision-language inference with response-guided visual token pruning."""

__version__ = "0.1.0"
