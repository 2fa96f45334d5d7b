"""k-forrelation classification at desk scale.

Statevector simulation of the restricted-instance forrelation circuits,
the multi-hot data encoding, exact and shot-sampled VQC / two-sample QSVM
decision rules, and reproducible promise-dataset generation.
"""
from .qstate import (
    CapacityError,
    Gate,
    GateKind,
    StateVector,
    apply_circuit,
    apply_gate,
    controlled_phase,
    hadamard_all,
    init_zero,
    phase_flip,
    sample_measurements,
    swap,
    unitary_of,
)
from .forrelation import (
    BooleanFunctionSpec,
    EncodedSample,
    ForrelationInstance,
    MalformedSampleError,
    OddKExtension,
    amplitudes_exact,
    ansatz_parameter_count,
    build_circuit,
    build_fixed_ansatz,
    components,
    decode,
    encode,
    function_of,
    gadget_gate_sequence,
    instance_of,
    oddk_extend,
    oddk_extension_count,
    phi_bruteforce,
    phi_circuit,
    phi_circuits,
    phi_fixed_ansatz,
    restricted_functions,
    sample_from_string,
    simulate_fixed_ansatz,
    simulate_instance,
)
from .classify import (
    DegenerateTrainingSetError,
    DualSolution,
    default_bias,
    dual_objective,
    kernel,
    negative_target_index,
    qsvm_classify,
    qsvm_train,
    shot_budget_for,
    vqc_classify,
    vqc_probability,
)
from .datagen import (
    DatasetFormatError,
    DatasetSpec,
    GenerationError,
    GenerationReport,
    LabeledSample,
    generate_dataset,
    make_negative_sample,
    make_positive_sample,
    read_dataset,
    sample_random_instance,
    write_dataset,
)

__version__ = "0.1.0"
