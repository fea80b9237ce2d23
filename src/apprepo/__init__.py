"""apprepo: research-repository tooling for GUI application snapshots.

Parses compiled class files into a browsable code model, builds and
persists static call graphs with class path origin classification,
ingests and validates hierarchical GUI models, links GUI event handlers
to code and assembles versioned project bundles with per-version
metrics.
"""

from .callgraph import (
    CallGraph,
    ClassHierarchy,
    ClasspathPartition,
    build_callgraph,
    build_hierarchy,
    find_main_entries,
    hierarchy_from_classes,
    parse_callgraph,
    resolve_targets,
    serialize_callgraph,
)
from .classfile import (
    ClassFile,
    Instruction,
    MethodInfo,
    MethodRef,
    parse_class,
    parse_descriptor,
    render_method,
)
from .errors import ReportItem
from .guimodel import (
    GuiElement,
    GuiModel,
    HandlerBinding,
    link_event_handlers,
    load_gui,
    persist_gui,
    transform_external,
    validate_gui,
)
from .metrics import (
    VersionMetrics,
    count_classes,
    count_loc,
    version_csv,
    version_metrics,
    version_table,
)
from .project import (
    ClassRepository,
    Project,
    ProjectReport,
    build_code_model,
    init_project,
    load_project,
    read_project_file,
    validate_project,
)

__version__ = "0.1.0"
