// Forwards to sim/disk_store.hh; kept only because perfbench/ includes it.
#include "sim/disk_store.hh"
