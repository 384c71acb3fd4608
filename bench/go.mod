module iustitia/bench

go 1.22

require iustitia v0.0.0

replace iustitia => ../
