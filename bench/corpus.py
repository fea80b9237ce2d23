"""Seeded Java corpora for the benchmark, compiled by the local ``javac``.

Every generator returns a :class:`Corpus`: Java sources, the partition of
the compiled classes into framework / library / application containers, a
ripper GUI document per version, and the generator's own reference counts
(classes, LOC, widgets, windows, handler bindings) plus every direct call
edge it wrote from a method that is reachable by construction. The run
checks apprepo's output against those references, never against apprepo's
own readers.

The generators never write a ``"\\u0000"`` literal or any non-ASCII text:
javac encodes NUL as the modified-UTF-8 pair ``C0 80``, which the class
file parser rejects today, so such a literal would fail every run.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

GRAPHICS = "sw/Graphics"
GDESC = "(Lsw/Graphics;)V"
# every component virtual takes a Graphics and returns void
VIRTUALS = ("paint", "update", "paintBorder", "paintChildren",
            "doLayout", "validate", "invalidate", "repaint")
WORDS = ("Panel", "Button", "Label", "Field", "Table", "Tree", "Pane", "Box",
         "Slider", "Menu", "Tab", "List", "Spinner", "Bar", "View", "Area")
PRIMITIVES = {"void": "V", "int": "I"}
# A client JIT and serial GC start javac about 40% sooner on these small
# inputs; without perf data the JVM writes nothing outside the work tree.
JVM_FLAGS = ("-J-XX:TieredStopAtLevel=1", "-J-XX:+UseSerialGC", "-J-XX:-UsePerfData")


def java_name(internal: str) -> str:
    return internal.replace("/", ".")


def type_descriptor(jtype: str) -> str:
    if jtype.endswith("[]"):
        return "[" + type_descriptor(jtype[:-2])
    if jtype in PRIMITIVES:
        return PRIMITIVES[jtype]
    return "L" + jtype.replace(".", "/") + ";"


@dataclass
class JavaMethod:
    name: str
    params: list[tuple[str, str]]  # (java type, parameter name)
    returns: str = "void"
    modifiers: str = "public"
    body: list[str] = field(default_factory=list)

    @property
    def descriptor(self) -> str:
        args = "".join(type_descriptor(t) for t, _ in self.params)
        return f"({args}){type_descriptor(self.returns)}"


@dataclass
class JavaClass:
    name: str  # internal name, e.g. "sw/Panel12"
    extends: str | None = None
    implements: list[str] = field(default_factory=list)
    interface: bool = False
    fields: list[str] = field(default_factory=list)
    methods: list[JavaMethod] = field(default_factory=list)
    extra_class_files: int = 0  # anonymous classes declared in the body

    def declares(self, name: str, descriptor: str) -> bool:
        if name == "<init>" and not self.interface and descriptor == "()V":
            # javac adds a default constructor when none is written
            if not any(m.name == "<init>" for m in self.methods):
                return True
        return any(m.name == name and m.descriptor == descriptor for m in self.methods)

    def render(self) -> tuple[str, int]:
        """Java source text and its LOC: non-blank, non-comment-only lines."""
        package, _, simple = self.name.rpartition("/")
        lines = ["// Generated benchmark corpus.", f"package {java_name(package)};", "",
                 "/*", f" * {simple}: generated class.", " */"]
        kind = "interface" if self.interface else "class"
        header = f"public {kind} {simple}"
        if self.extends:
            header += f" extends {java_name(self.extends)}"
        if self.implements:
            header += " implements " + ", ".join(java_name(i) for i in self.implements)
        body = [header + " {"]
        body += [f"    {f}" for f in self.fields]
        for m in self.methods:
            params = ", ".join(f"{t} {n}" for t, n in m.params)
            if m.name == "<init>":
                sig = f"{m.modifiers} {simple}({params})"
            else:
                sig = f"{m.modifiers} {m.returns} {m.name}({params})"
            if self.interface:
                body.append(f"    {sig};")
                continue
            body.append(f"    {sig} {{")
            body += [f"        {line}" for line in m.body]
            body.append("    }")
        body.append("}")
        text = "\n".join(lines + body) + "\n"
        # the package line plus every line of the class body is code
        return text, 1 + len(body)


@dataclass
class Version:
    """One application snapshot: which classes and windows it contains."""

    label: str
    timestamp: str
    app_classes: list[str]
    entry_points: list[str] | str
    windows: list[str]  # ripper <Window> fragments
    widgets: int
    handler_bindings: int


@dataclass
class Corpus:
    """Generated sources plus everything the checks compare against."""

    classes: dict[str, JavaClass] = field(default_factory=dict)
    framework: dict[str, list[str]] = field(default_factory=dict)  # jar -> classes
    library: dict[str, list[str]] = field(default_factory=dict)
    versions: list[Version] = field(default_factory=list)
    # (caller class, caller method text, static receiver type, name, descriptor)
    call_sites: list[tuple[str, str, str, str, str]] = field(default_factory=list)

    def add(self, cls: JavaClass) -> JavaClass:
        self.classes[cls.name] = cls
        return cls

    def declaration(self, owner: str, name: str, descriptor: str) -> str:
        """Nearest declaration at or above ``owner``, as javac resolves it."""
        work = [owner]
        seen = set()
        while work:
            current = work.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            cls = self.classes[current]
            if cls.declares(name, descriptor):
                return f"{current}.{name}{descriptor}"
            if cls.extends:
                work.insert(0, cls.extends)
            work.extend(cls.implements)
        raise ValueError(f"generator bug: {owner}.{name}{descriptor} is undeclared")

    def call(self, caller_class: str, caller: JavaMethod, owner: str,
             name: str, descriptor: str) -> None:
        """Record a call site written in a method that is reachable by design."""
        self.call_sites.append((caller_class, f"{caller_class}.{caller.name}"
                                f"{caller.descriptor}", owner, name, descriptor))

    def version_edges(self, version: Version) -> set[tuple[str, str]]:
        """Direct edges of the recorded sites whose caller a version holds.

        Resolved once the whole corpus exists, since a later override can
        change which declaration a site names.
        """
        present = set(version.app_classes)
        for jar in list(self.framework.values()) + list(self.library.values()):
            present.update(jar)
        return {(caller, self.declaration(owner, name, descriptor))
                for cls, caller, owner, name, descriptor in self.call_sites
                if cls in present}

    def class_file_count(self, names) -> int:
        return sum(1 + self.classes[n].extra_class_files for n in names)


# --- framework: a Swing-like component hierarchy ---------------------------

def _support_classes(corpus: Corpus) -> None:
    g = corpus.add(JavaClass(GRAPHICS, fields=["public int x;", "public int y;"]))
    for name in ("drawLine", "fillRect"):
        g.methods.append(JavaMethod(name, [("int", "a"), ("int", "b"), ("int", "c"),
                                           ("int", "d")],
                                    body=["x += a - c;", "y += b - d;"]))
    g.methods.append(JavaMethod("drawString", [("java.lang.String", "s"), ("int", "a"),
                                               ("int", "b")],
                                body=["x += s.length() + a;", "y += b;"]))
    event = corpus.add(JavaClass("sw/Event", fields=["public int id;"]))
    event.methods.append(JavaMethod("<init>", [("int", "id")], body=["this.id = id;"]))
    action = corpus.add(JavaClass("sw/ActionEvent", extends="sw/Event"))
    action.methods.append(JavaMethod("<init>", [("int", "id")], body=["super(id);"]))
    corpus.add(JavaClass("sw/ActionListener", interface=True, methods=[
        JavaMethod("actionPerformed", [("sw.ActionEvent", "e")])]))
    corpus.add(JavaClass("sw/MouseListener", interface=True, methods=[
        JavaMethod("mouseClicked", [("sw.Event", "e")]),
        JavaMethod("mousePressed", [("sw.Event", "e")])]))


def _component_root(corpus: Corpus) -> None:
    comp = corpus.add(JavaClass("sw/Component", fields=[
        "protected sw.ActionListener[] actionListeners = new sw.ActionListener[4];",
        "protected int actionCount;",
        "protected sw.MouseListener[] mouseListeners = new sw.MouseListener[4];",
        "protected int mouseCount;",
        "protected int width;",
        "protected int height;",
    ]))
    calls = {"update": "paint", "repaint": "update", "validate": "doLayout",
             "invalidate": "paintBorder"}
    for v in VIRTUALS:
        m = JavaMethod(v, [("sw.Graphics", "g")])
        if v in calls:
            m.body.append(f"{calls[v]}(g);")
            corpus.call(comp.name, m, comp.name, calls[v], GDESC)
        else:
            m.body.append("g.fillRect(width, height, 1, 1);")
            corpus.call(comp.name, m, GRAPHICS, "fillRect", "(IIII)V")
        comp.methods.append(m)
    for kind, event, methods in (("Action", "sw.ActionEvent", ("actionPerformed",)),
                                 ("Mouse", "sw.Event", ("mouseClicked", "mousePressed"))):
        lower = kind.lower()
        add = JavaMethod(f"add{kind}Listener", [(f"sw.{kind}Listener", "l")],
                         modifiers="public final", body=[
            f"if ({lower}Count == {lower}Listeners.length) {{",
            f"    sw.{kind}Listener[] grown = new sw.{kind}Listener[{lower}Count * 2];",
            f"    System.arraycopy({lower}Listeners, 0, grown, 0, {lower}Count);",
            f"    {lower}Listeners = grown;",
            "}",
            f"{lower}Listeners[{lower}Count++] = l;",
        ])
        fire = JavaMethod(f"fire{kind}", [(event, "e")], modifiers="public final",
                          body=[f"for (int i = 0; i < {lower}Count; i++) {{"]
                          + [f"    {lower}Listeners[i].{m}(e);" for m in methods] + ["}"])
        for m in methods:
            corpus.call(comp.name, fire, f"sw/{kind}Listener", m,
                        f"({type_descriptor(event)})V")
        comp.methods += [add, fire]
    cont = corpus.add(JavaClass("sw/Container", extends="sw/Component", fields=[
        "protected sw.Component[] children = new sw.Component[8];",
        "protected int count;",
    ]))
    cont.methods.append(JavaMethod("add", [("sw.Component", "c")], modifiers="public final",
                                   body=["if (count < children.length) {",
                                         "    children[count++] = c;", "}"]))
    for v in ("paintChildren", "doLayout"):
        m = JavaMethod(v, [("sw.Graphics", "g")], body=[
            f"super.{v}(g);",
            "for (int i = 0; i < count; i++) {",
            f"    children[i].{'paint' if v == 'paintChildren' else v}(g);",
            "}"])
        corpus.call(cont.name, m, "sw/Component", v, GDESC)
        corpus.call(cont.name, m, "sw/Component", "paint" if v == "paintChildren" else v,
                    GDESC)
        cont.methods.append(m)


def _helper(corpus: Corpus, cls: JavaClass, index: int, count: int,
            rng: random.Random, loop_lines: int) -> JavaMethod:
    """A fat private helper: a loop, a switch, Graphics calls, a chain call."""
    m = JavaMethod(f"helper{index}", [("sw.Graphics", "g"), ("int", "n")], returns="int",
                   modifiers="private")
    salt = rng.randrange(1, 1 << 20)
    m.body += [f"int s = {salt};", "for (int i = 0; i < n; i++) {", "    s = s * 31 + i;"]
    for j in range(loop_lines):
        m.body += [f"    if ((s & {j + 3}) == {j % 3}) {{",
                   f"        g.drawLine(s, i, n, {j + salt % 97});", "    }"]
    m.body.append("}")
    corpus.call(cls.name, m, GRAPHICS, "drawLine", "(IIII)V")
    m.body.append("switch (n & 7) {")
    for case in range(6):
        m.body.append(f"    case {case}: s ^= {rng.randrange(1, 1000)}; break;")
    m.body += ["    default: s -= 1;", "}"]
    if index + 1 < count:
        m.body.append(f"s += helper{index + 1}(g, n - 1);")
        corpus.call(cls.name, m, cls.name, f"helper{index + 1}", "(Lsw/Graphics;I)I")
    m.body.append("return s;")
    return m


@dataclass(frozen=True)
class FrameworkShape:
    classes: int  # generated component classes below sw/Container
    levels: int
    overrides: int  # component virtuals each class overrides
    helpers: int
    helper_lines: int
    listener_share: float  # fraction of classes that are also action listeners


def framework(corpus: Corpus, shape: FrameworkShape, rng: random.Random) -> list[str]:
    """The Swing-like hierarchy. Returns the generated component classes.

    Every override is reachable: the app calls each virtual through a
    ``sw.Component`` reference, and CHA fans that out to every override.
    Each override calls its super method, a helper chain, a virtual on a
    peer field typed as a mid-level class (a megamorphic site), and Graphics.
    """
    _support_classes(corpus)
    _component_root(corpus)
    per_level = max(1, shape.classes // shape.levels)
    levels: list[list[str]] = [["sw/Container"]]
    names: list[str] = []
    for i in range(shape.classes):
        level = min(i // per_level + 1, shape.levels)
        if len(levels) <= level:
            levels.append([])
        name = f"sw/{rng.choice(WORDS)}{i}"
        parent = rng.choice(levels[level - 1])
        levels[level].append(name)
        names.append(name)
        cls = corpus.add(JavaClass(name, extends=parent))
        peer_level = levels[max(1, level // 2)] if level > 1 else levels[0]
        peer = rng.choice(peer_level)
        cls.fields.append(f"protected {java_name(peer)} peer;")
        # last helper first: each helper calls the next one in the chain
        for h in reversed(range(shape.helpers)):
            cls.methods.append(_helper(corpus, cls, h, shape.helpers, rng,
                                       shape.helper_lines))
        for index, v in enumerate(sorted(rng.sample(VIRTUALS, shape.overrides))):
            m = JavaMethod(v, [("sw.Graphics", "g")])
            target = rng.choice(VIRTUALS)
            helper = index % shape.helpers
            m.body += [f"super.{v}(g);",
                       f"int acc = helper{helper}(g, {index + 2});",
                       "if (peer != null) {", f"    peer.{target}(g);", "}",
                       "g.fillRect(acc, width, height, 1);"]
            corpus.call(name, m, parent, v, GDESC)
            corpus.call(name, m, name, f"helper{helper}", "(Lsw/Graphics;I)I")
            corpus.call(name, m, peer, target, GDESC)
            corpus.call(name, m, GRAPHICS, "fillRect", "(IIII)V")
            cls.methods.append(m)
        if rng.random() < shape.listener_share:
            cls.implements.append("sw/ActionListener")
            m = JavaMethod("actionPerformed", [("sw.ActionEvent", "e")],
                           body=["repaint(null);"])
            corpus.call(name, m, name, "repaint", GDESC)
            cls.methods.append(m)
    return names


# --- application: frame, panels, handlers, lambdas, ripper windows ----------

def _attributes(props: list[tuple[str, str]]) -> str:
    return "<Attributes>" + "".join(
        f"<Property><Name>{n}</Name><Value>{escape(v)}</Value></Property>"
        for n, v in props) + "</Attributes>"


def _window(ident: str, cls: str, title: str, widgets: list[tuple[str, str, list[str]]],
            per_panel: int) -> str:
    """A ripper <Window> with widgets grouped into panels of ``per_panel``."""
    def component(wid: str, wcls: str, handlers: list[str], inner: str = "") -> str:
        props = [("ID", wid), ("Class", wcls), ("X", "4"), ("Y", "4"),
                 ("Width", "64"), ("Height", "20")]
        props += [("EventHandler", h) for h in handlers]
        contents = f"<Contents>{inner}</Contents>" if inner else ""
        return f"<Component>{_attributes(props)}{contents}</Component>\n"

    panels = []
    for start in range(0, len(widgets), per_panel):
        inner = "".join(component(*w) for w in widgets[start:start + per_panel])
        panels.append(component(f"{ident}.group{start // per_panel}", "sw.Panel", [], inner))
    props = [("ID", ident), ("Class", cls), ("Title", title),
             ("Width", "640"), ("Height", "480")]
    return (f"<Window>{_attributes(props)}\n"
            f"<Contents>\n{''.join(panels)}</Contents></Window>\n")


def ripper_document(windows: list[str]) -> str:
    return "<GUIStructure><GUI>\n" + "".join(windows) + "</GUI></GUIStructure>\n"


def _handler(corpus: Corpus, name: str, frame: str, model: str) -> JavaClass:
    cls = corpus.add(JavaClass(name, implements=["sw/ActionListener"],
                               fields=[f"private final {java_name(frame)} frame;"]))
    ctor = JavaMethod("<init>", [(java_name(frame), "frame")], body=["this.frame = frame;"])
    act = JavaMethod("actionPerformed", [("sw.ActionEvent", "e")], body=[
        f"{java_name(model)}.touch(e.id);",
        "frame.repaint(null); // redraw after the model changes",
        'java.lang.String tag = "/* not a comment */";',
        "frame.setTitleHint(tag);",
    ])
    corpus.call(name, act, model, "touch", "(I)V")
    corpus.call(name, act, frame, "repaint", GDESC)
    corpus.call(name, act, frame, "setTitleHint", "(Ljava/lang/String;)V")
    cls.methods += [ctor, act]
    return cls


def _model(corpus: Corpus, name: str) -> JavaClass:
    cls = corpus.add(JavaClass(name, fields=["private static int touched;"]))
    cls.methods.append(JavaMethod("touch", [("int", "id")], modifiers="public static",
                                  body=["touched += id;", "if (touched > 1000) {",
                                        "    touched = 0;", "}"]))
    return cls


def swing_app(corpus: Corpus, components: list[str], rng: random.Random, *,
              handlers: int, panels: int, windows: int, widgets_per_window: int,
              package: str = "app",
              main_calls: tuple[tuple[str, str, str, str], ...] = ()) -> Version:
    """Main, a frame with handler/lambda/anonymous listeners, panels, a model."""
    frame_name, main_name = f"{package}/MainFrame", f"{package}/Main"
    model = _model(corpus, f"{package}/model/Document")
    frame = corpus.add(JavaClass(frame_name, extends=rng.choice(components),
                                 fields=["private java.lang.String titleHint = \"\";"]))
    hint = JavaMethod("setTitleHint", [("java.lang.String", "hint")],
                      modifiers="public final", body=["titleHint = hint;"])
    frame.methods.append(hint)
    on_action = JavaMethod("onAction", [("int", "id")], modifiers="private",
                           body=[f"{java_name(model.name)}.touch(id + 1);"])
    ctor = JavaMethod("<init>", [])
    ctor.body.append("super();")
    corpus.call(frame_name, ctor, frame.extends, "<init>", "()V")
    handler_names = []
    for i in range(handlers):
        h = _handler(corpus, f"{package}/handlers/{rng.choice(WORDS)}Handler{i}",
                     frame_name, model.name)
        handler_names.append(h.name)
        ctor.body.append(f"addActionListener(new {java_name(h.name)}(this));")
        corpus.call(frame_name, ctor, h.name, "<init>", f"(L{frame_name};)V")
        corpus.call(frame_name, ctor, frame_name, "addActionListener",
                    "(Lsw/ActionListener;)V")
    ctor.body += [
        "addActionListener(e -> onAction(e.id)); // lambda handler",
        "addMouseListener(new sw.MouseListener() {",
        "    public void mouseClicked(sw.Event e) {",
        "        onAction(e.id);",
        "    }",
        "    public void mousePressed(sw.Event e) {",
        "        repaint(null);",
        "    }",
        "});",
    ]
    frame.extra_class_files = 1  # the anonymous MouseListener
    panel_names = []
    for i in range(panels):
        p = corpus.add(JavaClass(f"{package}/panels/{rng.choice(WORDS)}View{i}",
                                 extends=rng.choice(components)))
        for v in sorted(rng.sample(VIRTUALS, 2)):
            m = JavaMethod(v, [("sw.Graphics", "g")], body=[
                f"super.{v}(g);", 'g.drawString("view", width, height);'])
            corpus.call(p.name, m, p.extends, v, GDESC)
            corpus.call(p.name, m, GRAPHICS, "drawString", "(Ljava/lang/String;II)V")
            p.methods.append(m)
        panel_names.append(p.name)
        ctor.body.append(f"add(new {java_name(p.name)}());")
        corpus.call(frame_name, ctor, p.name, "<init>", "()V")
        corpus.call(frame_name, ctor, frame_name, "add", "(Lsw/Component;)V")
    frame.methods += [ctor, on_action]

    main = corpus.add(JavaClass(main_name))
    run = JavaMethod("main", [("java.lang.String[]", "args")], modifiers="public static",
                     body=["sw.Graphics g = new sw.Graphics();",
                           f"sw.Component c = new {java_name(frame_name)}();"])
    corpus.call(main_name, run, GRAPHICS, "<init>", "()V")
    corpus.call(main_name, run, frame_name, "<init>", "()V")
    for v in VIRTUALS:
        run.body.append(f"c.{v}(g);")
        corpus.call(main_name, run, "sw/Component", v, GDESC)
    run.body += ["c.fireAction(new sw.ActionEvent(args.length));",
                 "c.fireMouse(new sw.Event(1));"]
    corpus.call(main_name, run, "sw/ActionEvent", "<init>", "(I)V")
    corpus.call(main_name, run, "sw/Component", "fireAction", "(Lsw/ActionEvent;)V")
    corpus.call(main_name, run, "sw/Event", "<init>", "(I)V")
    corpus.call(main_name, run, "sw/Component", "fireMouse", "(Lsw/Event;)V")
    for statement, owner, name, descriptor in main_calls:
        run.body.append(statement)
        corpus.call(main_name, run, owner, name, descriptor)
    main.methods.append(run)

    app_classes = [main_name, frame_name, model.name] + handler_names + panel_names
    wins, widgets, bindings = [], 0, 0
    for w in range(windows):
        items = []
        for i in range(widgets_per_window):
            wcls = rng.choice(WORDS)
            handler = handler_names[(w * widgets_per_window + i) % len(handler_names)]
            hs = [handler] if i % 2 == 0 else []
            items.append((f"w{w}.{wcls.lower()}{i}", f"sw.{wcls}", hs))
            bindings += len(hs)
        per_panel = 6
        wins.append(_window(f"w{w}", java_name(frame_name), f"Window {w}", items, per_panel))
        widgets += len(items) + -(-len(items) // per_panel)
    return Version("1.0", "2001-06-01", app_classes, "auto", wins, widgets, bindings)


def evolving_app(corpus: Corpus, components: list[str], rng: random.Random, *,
                 modules: int, versions: int, handlers_per_module: int,
                 widgets_per_window: int) -> list[Version]:
    """An app that grows by modules; version k holds the first modules.

    Module i has a static ``start`` that starts module i-1 and then drives
    its own view through ``sw.Component``, so each version's explicit entry
    point (its newest module's ``start``) reaches every module it holds.
    """
    model = _model(corpus, "app/model/Document")
    starts, module_classes, windows, bindings = [], [], [], []
    for i in range(modules):
        pkg = f"app/m{i}"
        view = corpus.add(JavaClass(f"{pkg}/{rng.choice(WORDS)}View",
                                    extends=rng.choice(components)))
        view_ctor = JavaMethod("<init>", [], body=["super();"])
        corpus.call(view.name, view_ctor, view.extends, "<init>", "()V")
        hint = JavaMethod("setTitleHint", [("java.lang.String", "hint")],
                          modifiers="public final", body=["width = hint.length();"])
        view.methods.append(hint)
        names = [view.name]
        for j in range(handlers_per_module):
            h = _handler(corpus, f"{pkg}/{rng.choice(WORDS)}Handler{j}", view.name, model.name)
            names.append(h.name)
            view_ctor.body.append(f"addActionListener(new {java_name(h.name)}(this));")
            corpus.call(view.name, view_ctor, h.name, "<init>", f"(L{view.name};)V")
            corpus.call(view.name, view_ctor, view.name, "addActionListener",
                        "(Lsw/ActionListener;)V")
        view_ctor.body.append("addActionListener(e -> width += e.id); // lambda handler")
        view.methods.append(view_ctor)
        for v in sorted(rng.sample(VIRTUALS, 2)):
            m = JavaMethod(v, [("sw.Graphics", "g")], body=[
                f"super.{v}(g);", 'g.drawString("module", width, height);'])
            corpus.call(view.name, m, view.extends, v, GDESC)
            corpus.call(view.name, m, GRAPHICS, "drawString", "(Ljava/lang/String;II)V")
            view.methods.append(m)
        module = corpus.add(JavaClass(f"{pkg}/Module"))
        start = JavaMethod("start", [("sw.Graphics", "g")], modifiers="public static")
        if i > 0:
            start.body.append(f"app.m{i - 1}.Module.start(g);")
            corpus.call(module.name, start, f"app/m{i - 1}/Module", "start", GDESC)
        start.body.append(f"sw.Component c = new {java_name(view.name)}();")
        corpus.call(module.name, start, view.name, "<init>", "()V")
        for v in VIRTUALS:
            start.body.append(f"c.{v}(g);")
            corpus.call(module.name, start, "sw/Component", v, GDESC)
        start.body += [f"c.fireAction(new sw.ActionEvent({i}));",
                       f"c.fireMouse(new sw.Event({i}));"]
        corpus.call(module.name, start, "sw/ActionEvent", "<init>", "(I)V")
        corpus.call(module.name, start, "sw/Component", "fireAction", "(Lsw/ActionEvent;)V")
        corpus.call(module.name, start, "sw/Event", "<init>", "(I)V")
        corpus.call(module.name, start, "sw/Component", "fireMouse", "(Lsw/Event;)V")
        module.methods.append(start)
        names.append(module.name)
        module_classes.append(names)
        starts.append(f"{module.name}.start{GDESC}")
        items = []
        for w in range(widgets_per_window):
            handler = names[1 + w % handlers_per_module] if w % 2 == 0 else None
            wcls = rng.choice(WORDS)
            items.append((f"m{i}.{wcls.lower()}{w}", f"sw.{wcls}",
                          [handler] if handler else []))
        windows.append(_window(f"m{i}", java_name(view.name), f"Module {i}", items, 6))
        bindings.append(sum(1 for it in items if it[2]))

    result = []
    for k in range(versions):
        held = max(1, modules * (k + 1) // versions)
        app = [model.name] + [n for names in module_classes[:held] for n in names]
        widgets = sum(widgets_per_window + -(-widgets_per_window // 6) for _ in range(held))
        result.append(Version(f"1.{k}", f"2001-{k + 1:02d}-15", app, [starts[held - 1]],
                              windows[:held], widgets, sum(bindings[:held])))
    return result


# --- library: wide classes with loops and switches, little reachable --------

def library_class(corpus: Corpus, name: str, rng: random.Random, methods: int,
                  cases: int) -> JavaClass:
    cls = corpus.add(JavaClass(name, fields=["private int state;",
                                             "private long total;"]))
    for i in range(methods):
        m = JavaMethod(f"op{i}", [("int", "x")], returns="int")
        salt = rng.randrange(1, 1 << 16)
        m.body += [f"int s = x ^ {salt};", "for (int i = 0; i < x; i++) {",
                   f"    switch ((s + i) % {cases}) {{"]
        for c in range(cases):
            m.body.append(f"        case {c}: s += i * {rng.randrange(1, 50)}; break;")
        m.body += ["        default: s -= i;", "    }", "}",
                   "switch (s & 0x7fff) {"]
        for label in sorted(rng.sample(range(1, 0x7fff), cases // 2)):
            m.body.append(f"    case {label}: state++; break;")
        m.body += ["    default: total += s;", "}"]
        if i + 1 < methods and i % 3 == 0:
            m.body.append(f"s += op{i + 1}(x - 1);")
        m.body.append('java.lang.StringBuilder sb = new java.lang.StringBuilder("v");')
        m.body.append("return s + sb.append(s).length();")
        cls.methods.append(m)
    return cls


# --- compilation and layout -------------------------------------------------

class SetupError(Exception):
    """The benchmark cannot build its inputs on this machine."""


def javac_version() -> str:
    javac = shutil.which("javac")
    if javac is None:
        raise SetupError("javac not found on PATH: the benchmark compiles its Java "
                         "corpora with the local JDK (javac --release 8)")
    out = subprocess.run([javac, *JVM_FLAGS, "-version"], capture_output=True, text=True,
                         check=True)
    return (out.stdout or out.stderr).strip()


def compile_corpus(corpus: Corpus, work: Path) -> tuple[Path, Path]:
    """Write every source, run one ``javac --release 8``; (sources, classes)."""
    javac_version()
    src, out = work / "java-src", work / "javac-out"
    files = []
    for cls in corpus.classes.values():
        text, _ = cls.render()
        if "\\u0000" in text or not text.isascii():
            raise SetupError(f"generator bug: {cls.name} has non-ASCII or NUL text")
        path = src / (cls.name + ".java")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="ascii")
        files.append(str(path.relative_to(work)))
    argfile = work / "javac-files.txt"
    argfile.write_text("\n".join(sorted(files)) + "\n", encoding="ascii")
    out.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(["javac", *JVM_FLAGS,
                           "--release", "8", "-nowarn", "-encoding", "ascii",
                           "-d", str(out.relative_to(work)), f"@{argfile.name}"],
                          cwd=work, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SetupError(f"javac failed:\n{proc.stderr[-4000:]}")
    expected = corpus.class_file_count(corpus.classes)
    produced = sum(1 for _ in out.rglob("*.class"))
    if produced != expected:
        raise SetupError(f"javac produced {produced} class files, generator expected "
                         f"{expected}")
    return src, out


def class_files(classes_dir: Path, name: str) -> list[Path]:
    """The class file of one class plus its anonymous/nested classes."""
    base = classes_dir / (name + ".class")
    return [base] + sorted(base.parent.glob(base.stem + "$*.class"))


def write_jar(jar: Path, classes_dir: Path, names: list[str]) -> None:
    jar.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(jar, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in sorted(names):
            for path in class_files(classes_dir, name):
                info = zipfile.ZipInfo(path.relative_to(classes_dir).as_posix(),
                                       date_time=(2001, 6, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_DEFLATED
                zf.writestr(info, path.read_bytes())


def copy_classes(dest: Path, classes_dir: Path, names: list[str]) -> None:
    for name in names:
        for path in class_files(classes_dir, name):
            target = dest / path.relative_to(classes_dir)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)


def copy_sources(dest: Path, src_dir: Path, corpus: Corpus, names: list[str]) -> int:
    """Copy the sources of some classes; returns the generator's LOC for them."""
    loc = 0
    for name in names:
        target = dest / (name + ".java")
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src_dir / (name + ".java"), target)
        loc += corpus.classes[name].render()[1]
    return loc

