module odh/bench

go 1.22

require odh v0.0.0

replace odh => ../
