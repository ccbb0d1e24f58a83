# workloads.sh - the toposim spec behind each repository-benchmark workload
# (benchmark/workloads.go), for scripts that profile them. Source it, then
# `spec NAME` prints the flag list; WORKLOADS lists the four names.
WORKLOADS="paperB16-vbr tree1k-agg tree10k-flat tree1k-churn"

spec() {
	case "$1" in
	paperB16-vbr) echo "-topo b,sessions=16 -traffic vbr3 -duration 800" ;;
	tree1k-agg) echo "-topo tree,depth=3,branch=8,rxleaf=2 -aggregate -duration 40" ;;
	tree10k-flat) echo "-topo tree,depth=4,branch=10,rxleaf=1 -duration 10" ;;
	tree1k-churn) echo "-topo tree,depth=3,branch=8,rxleaf=2 -aggregate -churn 8 -duration 100" ;;
	*) echo "unknown workload $1 (one of: $WORKLOADS)" >&2; exit 2 ;;
	esac
}
