"""Masked-diffusion vision-language inference with response-guided visual token pruning."""

from .analysis import (FlopsReport, SimilarityCurve, cosine, flops_baseline,
                       flops_for_lengths, flops_report, similarity_curve)
from .decoder import (PolicyKind, RunStats, SchedulePolicy, SequenceState, StepOutcome,
                      decode_quota, init_state, remask_prob, run_inference, step)
from .harness import (BenchParams, BenchReport, ConfigError, RunConfig, TaskInstance,
                      TaskParams, TimerResolutionError, config_from_dict, emit_report,
                      gen_pointer_task, load_config, run_accuracy, run_bench,
                      run_similarity)
from .model import (AttentionCapture, CopyTaskVocab, ModelConfig, ModelWeights,
                    build_copy_model, copy_model_config, embed_prompt, embed_response,
                    encode_image, forward, init_random_model)
from .numerics import Matrix, SeededRng, layer_norm, softmax_rows
from .pruning import (EmptyGuidanceSet, KeepSet, PrunePlan, ScorerKind, StrategyKind,
                      apply_prune, guidance_rows, importance_scores, keep_schedule,
                      mean_attention, plan_progressive, random_keep, select_top)

__version__ = "0.1.0"
