# Keeps this directory importable for the shared oracle helpers.
import os
import sys

# The benchmark's modules in perfbench/ import one another by bare name.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.append(os.path.join(os.path.dirname(HERE), "perfbench"))
