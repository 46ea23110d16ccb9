from .programs import stdlib_names, stdlib_program

__all__ = ["stdlib_names", "stdlib_program"]
