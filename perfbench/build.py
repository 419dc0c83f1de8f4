"""Build file of the benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) using the Scala 2.13 compiler from the jar
directory that build.sbt compiles the program against (its unmanagedBase).
Output goes to .bench_build/perfbench/<hash> inside the checkout; a build
whose inputs are unchanged is reused.
"""

import glob
import hashlib
import os
import re
import shutil
import subprocess

BUILD_DIR = os.path.join(".bench_build", "perfbench")


class BuildError(Exception):
    pass


def jar_dir(root):
    """The jar directory build.sbt compiles the program against."""
    try:
        with open(os.path.join(root, "build.sbt")) as f:
            found = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
    except OSError:
        found = None
    if not found:
        raise BuildError("no build.sbt naming an unmanagedBase jar directory: run from the root of a checkout")
    return found.group(1)


def _jar(root, name):
    found = sorted(glob.glob(os.path.join(jar_dir(root), name + "-2.13.*.jar")))
    if not found:
        raise BuildError(f"no {name} 2.13 jar in {jar_dir(root)}")
    return found[-1]


def scala_library(root):
    return _jar(root, "scala-library")


def _sources(root):
    program = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(root, "perfbench", "src", "**", "*.scala"), recursive=True))
    if not program:
        raise BuildError("no program sources under src/main/scala: run from the root of a checkout")
    if not bench:
        raise BuildError("no benchmark sources under perfbench/src")
    return program + bench


def build(root):
    """Return the classes directory for the current sources, compiling if needed."""
    sources = _sources(root)
    compiler = [_jar(root, "scala-compiler"), scala_library(root), _jar(root, "scala-reflect")]
    digest = hashlib.sha256()
    for path in compiler + sources:
        digest.update(os.path.relpath(path, root).encode())
        if path in sources:
            with open(path, "rb") as f:
                digest.update(f.read())
    out = os.path.join(root, BUILD_DIR, digest.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    if os.path.exists(os.path.join(out, "complete")):
        return classes
    shutil.rmtree(os.path.join(root, BUILD_DIR), ignore_errors=True)
    os.makedirs(classes)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", classes,
           "-classpath", os.path.join(jar_dir(root), "*")] + sources
    done = subprocess.run(cmd, cwd=root)
    if done.returncode != 0:
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    open(os.path.join(out, "complete"), "w").close()
    return classes
