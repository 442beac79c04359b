"""Unsupervised autoencoder anomaly detection for multivariate
minute-resolution sensor logs: snapshot and sequence autoencoders trained on
healthy data only, reconstruction-error scoring (MSE or Mahalanobis), and
percentile thresholding."""

from .dataset import (
    FaultSchedule,
    SensorLog,
    label_samples,
    load_fault_intervals,
    load_sensor_csv,
    write_fault_intervals,
    write_sensor_csv,
)
from .detector import (
    ScoreSeries,
    ThresholdSpec,
    detect,
    fit_threshold,
    score_mahalanobis,
    score_pointwise_mse,
    score_window_mse,
)
from .errors import (
    DuplicateTimestampError,
    LeakageError,
    ModelFormatError,
    NumericError,
    ParseError,
    SpacingError,
    ValidationError,
)
from .evaluation import (
    ConfusionMatrix,
    MetricsReport,
    confusion,
    format_metrics_table,
    metrics,
    write_metrics_csv,
)
from .models import (
    DenseAutoencoder,
    LstmAutoencoder,
    ModelBundle,
    load_model,
    save_model,
)
from .preprocess import (
    ScalerParams,
    SplitPlan,
    WindowSpec,
    apply_scaler,
    drop_empty_channels,
    fit_scaler,
    impute_cascade,
    invert_scaler,
    partition_items,
    partition_windows,
    plan_split,
)
from .synthplant import ChannelSpec, FaultSpec, PlantConfig, default_config, generate
from .training import (
    CovarianceModel,
    TrainConfig,
    TrainReport,
    estimate_residual_covariance,
    mahalanobis_loss,
    matrix_inverse_sqrt,
    mse_loss,
    train,
)

__version__ = "0.1.0"
