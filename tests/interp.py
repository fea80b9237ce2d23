"""Concrete mini-interpreter producing dynamic call traces of fixtures.

Executes parsed fixture method bodies with real receiver objects and
real virtual dispatch (runtime-class lookup), recording one trace edge
per executed invoke instruction plus class initializer activations.
Dispatch here is deliberately independent of the package's CHA code:
it walks concrete runtime types, not declared ones.

Supports exactly the opcode subset the runnable fixtures use and fails
loudly on anything else.
"""

from __future__ import annotations

from apprepo.callgraph import ClassHierarchy
from apprepo.classfile import MethodRef

from oracle_cha import oracle_default


class Obj:
    """A heap object: runtime class plus instance fields."""

    def __init__(self, class_name: str):
        self.class_name = class_name
        self.fields: dict = {}


def _param_count(desc: str) -> int:
    count = 0
    i = 1
    while desc[i] != ")":
        ch = desc[i]
        while ch == "[":
            i += 1
            ch = desc[i]
        if ch == "L":
            i = desc.index(";", i) + 1
        else:
            i += 1
        count += 1
    return count


def _returns_value(desc: str) -> bool:
    return desc[desc.index(")") + 1] != "V"


class TraceInterpreter:
    """Runs a fixture main and records (caller, callee, kind) edges."""

    def __init__(self, hierarchy: ClassHierarchy):
        self.h = hierarchy
        self.statics: dict = {}
        self.initialized: set[str] = set()
        self.edges: list[tuple[str, str, str]] = []

    def run_main(self, class_name: str) -> list[tuple[str, str, str]]:
        self.ensure_initialized(class_name)
        self.execute(MethodRef(class_name, "main", "([Ljava/lang/String;)V"), [None])
        return self.edges

    def ensure_initialized(self, class_name: str) -> None:
        if class_name in self.initialized:
            return
        self.initialized.add(class_name)
        cf = self.h.classes.get(class_name)
        if cf is None:
            return
        if cf.super_name:
            self.ensure_initialized(cf.super_name)
        if ("<clinit>", "()V") in cf.methods:
            ref = MethodRef(class_name, "<clinit>", "()V")
            self.edges.append(("<vm>", ref.text, "clinit"))
            self.execute(ref, [])

    def dispatch(self, runtime_class: str, name: str, desc: str) -> MethodRef | None:
        """Concrete method lookup from the receiver's runtime class upward,
        then the default method the JVM selects from its superinterfaces."""
        current = runtime_class
        while current is not None and current in self.h.classes:
            cf = self.h.classes[current]
            method = cf.methods.get((name, desc))
            if method is not None and method.has_body:
                return MethodRef(current, name, desc)
            current = cf.super_name
        return oracle_default(self.h.classes, runtime_class, name, desc)

    def _invoke(self, caller: MethodRef, kind: str, declared: MethodRef,
                stack: list) -> None:
        name, desc = declared.name, declared.descriptor
        argc = _param_count(desc)
        if kind == "dynamic":
            self.edges.append((caller.text, declared.text, "dynamic"))
            return
        if kind == "static":
            self.ensure_initialized(declared.in_class)
            args = [stack.pop() for _ in range(argc)][::-1]
            resolved = self.dispatch(declared.in_class, name, desc)
        else:
            args = [stack.pop() for _ in range(argc)][::-1]
            receiver = stack.pop()
            args = [receiver] + args
            if kind == "special":
                resolved = self.dispatch(declared.in_class, name, desc)
            else:  # virtual / interface: dispatch on the runtime type
                assert isinstance(receiver, Obj), f"receiver of {declared.text}"
                resolved = self.dispatch(receiver.class_name, name, desc)
        callee = resolved if resolved is not None else declared
        self.edges.append((caller.text, callee.text, kind))
        if resolved is not None:
            result = self.execute(resolved, args)
        else:
            result = None  # call into unparsed code: skip, default result
        if _returns_value(desc):
            stack.append(result if resolved is not None else 0)

    def execute(self, ref: MethodRef, args: list):
        cf = self.h.classes[ref.in_class]
        method = cf.methods.get((ref.name, ref.descriptor))
        assert method is not None and method.has_body, ref.text
        instructions = method.instructions
        index_of = {ins.offset: i for i, ins in enumerate(instructions)}
        local_vars: dict[int, object] = dict(enumerate(args))
        stack: list = []
        i = 0
        while True:
            ins = instructions[i]
            op = ins.mnemonic
            if op == "nop":
                pass
            elif op == "aconst_null":
                stack.append(None)
            elif op.startswith("iconst_"):
                tail = op.split("_")[1]
                stack.append(-1 if tail == "m1" else int(tail))
            elif op in ("bipush", "sipush"):
                stack.append(ins.operands[0])
            elif op in ("ldc", "ldc_w", "ldc2_w"):
                stack.append(ins.literal)
            elif op in ("iload", "aload"):
                stack.append(local_vars[ins.operands[0]])
            elif op in ("istore", "astore"):
                local_vars[ins.operands[0]] = stack.pop()
            elif op[:6] in ("iload_", "aload_"):
                stack.append(local_vars[int(op[6])])
            elif op[:7] in ("istore_", "astore_"):
                local_vars[int(op[7])] = stack.pop()
            elif op == "pop":
                stack.pop()
            elif op == "dup":
                stack.append(stack[-1])
            elif op in ("iadd", "isub", "imul", "idiv"):
                b, a = stack.pop(), stack.pop()
                stack.append({"iadd": a + b, "isub": a - b,
                              "imul": a * b, "idiv": int(a / b)}[op])
            elif op == "ineg":
                stack.append(-stack.pop())
            elif op == "goto":
                i = index_of[ins.operands[0]]
                continue
            elif op in ("ifeq", "ifne", "iflt", "ifge"):
                value = stack.pop()
                taken = {"ifeq": value == 0, "ifne": value != 0,
                         "iflt": value < 0, "ifge": value >= 0}[op]
                if taken:
                    i = index_of[ins.operands[0]]
                    continue
            elif op.startswith("if_icmp"):
                b, a = stack.pop(), stack.pop()
                taken = {"if_icmpeq": a == b, "if_icmpne": a != b,
                         "if_icmplt": a < b, "if_icmpge": a >= b}[op]
                if taken:
                    i = index_of[ins.operands[0]]
                    continue
            elif op == "new":
                self.ensure_initialized(ins.type_name)
                stack.append(Obj(ins.type_name))
            elif op == "getstatic":
                cls, name, desc = ins.member
                self.ensure_initialized(cls)
                stack.append(self.statics.get((cls, name, desc),
                                              None if desc.startswith("L") else 0))
            elif op == "putstatic":
                cls, name, desc = ins.member
                self.ensure_initialized(cls)
                self.statics[(cls, name, desc)] = stack.pop()
            elif op == "getfield":
                _, name, desc = ins.member
                obj = stack.pop()
                stack.append(obj.fields.get((name, desc),
                                            None if desc.startswith("L") else 0))
            elif op == "putfield":
                _, name, desc = ins.member
                value = stack.pop()
                obj = stack.pop()
                obj.fields[(name, desc)] = value
            elif op in ("invokestatic", "invokespecial", "invokevirtual",
                        "invokeinterface", "invokedynamic"):
                kind = {"invokestatic": "static", "invokespecial": "special",
                        "invokevirtual": "virtual", "invokeinterface": "interface",
                        "invokedynamic": "dynamic"}[op]
                self._invoke(ref, kind, ins.target, stack)
            elif op == "return":
                return None
            elif op in ("ireturn", "areturn"):
                return stack.pop()
            else:
                raise AssertionError(f"interpreter has no support for {op} in {ref.text}")
            i += 1
