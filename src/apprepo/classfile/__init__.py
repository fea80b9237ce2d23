"""Compiled class file parsing and disassembly."""

from .constant_pool import ConstantEntry, ConstantPool, quote_string
from .descriptors import parse_descriptor
from .parser import (
    ACC_ABSTRACT,
    ACC_FINAL,
    ACC_INTERFACE,
    ACC_NATIVE,
    ACC_PRIVATE,
    ACC_PUBLIC,
    ACC_STATIC,
    MAIN_DESCRIPTOR,
    MAIN_NAME,
    MAX_MAJOR_VERSION,
    MIN_MAJOR_VERSION,
    ROOT_OBJECT_CLASS,
    ClassFile,
    Instruction,
    MethodInfo,
    MethodRef,
    parse_class,
    render_method,
)

__all__ = [
    "ClassFile", "MethodInfo", "Instruction", "MethodRef",
    "ConstantPool", "ConstantEntry",
    "parse_class", "parse_descriptor",
    "render_method", "quote_string",
    "ROOT_OBJECT_CLASS", "MAIN_NAME", "MAIN_DESCRIPTOR",
    "MIN_MAJOR_VERSION", "MAX_MAJOR_VERSION",
    "ACC_PUBLIC", "ACC_PRIVATE", "ACC_STATIC", "ACC_FINAL", "ACC_NATIVE",
    "ACC_INTERFACE", "ACC_ABSTRACT",
]
