#!/usr/bin/env bash
# Every CI job, offline, one after another; stops at the first failure and
# names the job. Run it from anywhere before opening a PR.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
for job in ci/jobs/*.sh; do
  echo "== $job"
  bash "$job" || { echo "ci/all.sh: $job failed"; exit 1; }
done
echo "ci/all.sh: every job passed"
