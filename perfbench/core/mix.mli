(** The seeded request mix of the [serve] workload.

    Mostly single-record [replay] (the cheap verdict the daemon exists
    for), some two-point [explore] (the default machine plus [cpus=8],
    two pool tasks), and some [profile] of a small program — a full
    pipeline run that holds a worker far longer than a replay, so it
    blocks the requests queued behind it.

    The sequence is a series of shuffled blocks. Each block replays
    every container twice, explores three containers, and profiles
    every program once; with twelve containers and three programs that
    is 24 + 3 + 3 requests, 80% / 10% / 10%. The explored containers
    are taken in turn from shuffled permutations of all of them, so
    every container is explored once per four blocks: the containers
    differ in size many times over, and a free draw would make the
    work of a run depend on the seed. The seed picks the order within
    each block and of each permutation, so every seed offers the daemon
    the same work per four blocks, and a run-to-run difference is the
    system's, not the draw's. Twelve containers is more than the
    daemon's 8-entry mapping cache holds, so the mix gets both cache
    hits and misses.

    The shares, the programs and the container set are an assumption,
    not a measurement: the repository has no recorded daemon traffic to
    derive them from. They stay fixed so that runs compare; derive them
    from a request log once one is checked in. The [profile] share
    alone sets [p99_ms], so that figure reflects this assumption. *)

val explore_grid : string list
(** The [--grid] of every [explore] request. *)

val requests :
  seed:int ->
  containers:(string * string) array ->
  programs:string array ->
  int ->
  Jrpm.Daemon.request array
(** [requests ~seed ~containers ~programs n] is the first [n] requests
    of the mix for [seed]; [containers] are (path, record name) pairs,
    [programs] registry workload names. The same arguments always give
    the same sequence.
    @raise Invalid_argument when either array is empty. *)
