"""Run the rotbec command line under the tracer (traced form of sweep-cli).

    python3 bench/traced_cli.py SUMMARY.json sweep --config cfg.json --workers 1

Writes the span summary of the CLI process to SUMMARY.json and exits with
the CLI's own exit code.  Process-pool workers are not followed, so the
traced sweep runs serially (``--workers 1``), as sweep-cli does.
"""

import json
import sys
from pathlib import Path

import tracer as tr


def main():
    out_path = Path(sys.argv[1])
    tracer = tr.Tracer()
    tr.install_fft(tracer)
    import rotbec.cli as cli

    tr.install_layers(tracer)
    tracer.absent["cli.pool_wait"] = ("process-pool workers are not traced; "
                                      "sweep-cli runs --workers 1, which makes no pool")
    tracer.enabled = True
    code = cli.main(sys.argv[2:])
    tracer.enabled = False
    out_path.write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
